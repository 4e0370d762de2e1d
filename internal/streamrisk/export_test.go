package streamrisk

import (
	"fmt"
	"io"
)

// WriteEvent writes one SSE frame: the event name and the payload, a
// Snapshot or a Delta, as compact JSON (the bytes json.Marshal produces).
// The handlers encode their frames directly; the tests, in this package
// and in streamrisk_test, write single frames through it.
func WriteEvent(w io.Writer, event string, payload any) error {
	var enc encoder
	switch p := payload.(type) {
	case Snapshot:
		enc.snapshotEvent(event, &p)
	case Delta:
		enc.deltaEvent(event, &p)
	default:
		return fmt.Errorf("streamrisk: %s event payload is a %T, not a Snapshot or a Delta", event, payload)
	}
	return enc.writeEvent(w, event)
}
