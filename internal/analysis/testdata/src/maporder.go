// Fixture for the maporder rule: map iteration order must not reach
// returned slices without an intervening sort.
package fixture

import (
	"slices"
	"sort"
)

// LeakKeys returns map keys in Go's randomized iteration order.
func LeakKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want maporder
	}
	return out
}

// LeakValuesNamed leaks through a named result.
func LeakValuesNamed(m map[string]int) (vals []int) {
	for _, v := range m {
		vals = append(vals, v) // want maporder
	}
	return
}

// SortedKeys collects then sorts — the clean idiom.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SortedSlice redeems the accumulator with sort.Slice.
func SortedSlice(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedSlicesPkg redeems the accumulator with slices.Sort.
func SortedSlicesPkg(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// LocalOnly never returns the accumulated slice; its order is private.
func LocalOnly(m map[string]int) int {
	var tmp []string
	for k := range m {
		tmp = append(tmp, k)
	}
	n := len(tmp)
	return n
}

// Acknowledged leaks deliberately (say, into an order-insensitive
// consumer) and is escape-commented.
func Acknowledged(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //lint:allow maporder fixture: consumer sorts
	}
	return out
}
