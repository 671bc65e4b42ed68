// Fixture for the testonly rule: a package whose name ends in "test"
// is test support, and nothing in it is flagged.
package libtest

import "fixture/lib"

// Check is a helper only tests call.
func Check() bool { return lib.TestOnly() == 1 }
