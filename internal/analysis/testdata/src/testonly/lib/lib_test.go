package lib

import "testing"

// TestSurface is the only caller of the flagged declarations; test
// files never count as references.
func TestSurface(t *testing.T) {
	if TestOnly()+Countdown(Limit)+Allowed() != 3 || (Square{1}).Perimeter() != 4 {
		t.Fatal("fixture")
	}
}
