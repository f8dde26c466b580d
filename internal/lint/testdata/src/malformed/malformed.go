// Package malformed holds suppression directives that are themselves
// reported: one without a reason, one naming an analyzer that is not
// registered. Neither suppresses the finding below it. The third directive
// names a registered analyzer outside the test's -run subset and is valid.
package malformed

import "os"

func drop(f *os.File) {
	//lint:ignore errcheckstrict
	f.Close()
}

func stale(f *os.File) {
	//lint:ignore golife no analyzer of that name is registered
	f.Close()
}

func registered() {
	//lint:ignore nodeterminism names a registered analyzer, so it is well-formed
	_ = 0
}

var _, _, _ = drop, stale, registered
