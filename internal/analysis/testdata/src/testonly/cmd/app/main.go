// Fixture for the testonly rule: the program whose calls make the
// library's surface. Linted as part of a module rooted one level up
// from cmd; never compiled into the repository's module.
package main

import "fixture/lib"

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
	_ = lib.Used()
}
