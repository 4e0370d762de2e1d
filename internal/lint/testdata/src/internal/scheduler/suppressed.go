package scheduler

import "fixture/detutil"

// Quiet reaches only a sanitized site: the //lint:allow directive on the
// direct read stops the taint, so no caller is reported.
func Quiet() {
	detutil.StampAllowed()
}

// Loud reaches an unsanitized site but carries its own documented
// exemption at the declaration.
//
//lint:allow detflow — fixture: reviewed transitive wall-clock use
func Loud() {
	detutil.Stamp()
}

// internalHelper is unexported: not an entry point, so reachability is not
// reported here (its exported callers are the findings). The blank
// reference keeps it reached for the deadcode rule.
var _ = internalHelper

func internalHelper() {
	detutil.Stamp()
}
