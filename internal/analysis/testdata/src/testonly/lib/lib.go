// Fixture for the testonly rule: what main reaches is the surface;
// what only lib_test.go reaches is flagged.
package lib

import "errors"

// Shape is a module interface: any method named Area may be called
// through it.
type Shape interface{ Area() float64 }

// Square is reached from main, so its Area method is too.
type Square struct{ Side float64 }

// Area satisfies Shape; no call names it directly.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is a method no non-test code calls.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want testonly

// Used is called from another package: not flagged.
func Used() error {
	return wrapErr{errors.New("x")}
}

// wrapErr is reached through Used; Unwrap is a name the standard
// library calls, so it is not flagged.
type wrapErr struct{ err error }

func (w wrapErr) Error() string { return "wrapped" }
func (w wrapErr) Unwrap() error { return w.err }

// TestOnly is exported, and only a test calls it.
func TestOnly() int { return helper() } // want testonly

// helper is unexported, and only TestOnly calls it.
func helper() int { return 1 } // want testonly

// Countdown calls itself, which does not count.
func Countdown(n int) int { // want testonly
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Limit is a constant only tests read.
const Limit = 3 // want testonly

//lint:allow testonly fixture: kept for its documented role
func Allowed() int { return allowedHelper() }

// allowedHelper is reached from an allowed declaration.
func allowedHelper() int { return 2 }
