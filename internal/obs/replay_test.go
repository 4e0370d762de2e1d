package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// buildJournal assembles a well-formed journal for the parser tests.
func buildJournal(decisions int, final bool) *SessionJournal {
	j := NewSessionJournal(SessionHeader{
		ID: "s-1", Policy: "Libra+$", Model: "commodity", Nodes: 128, BasePrice: 1,
		Seed: 7, FaultIntensity: "high", FaultHorizon: 5000,
	})
	for i := 0; i < decisions; i++ {
		j.Decision(SessionDecision{
			Job: i + 1, Submit: float64(i) * 10, Runtime: 100, Estimate: 100, Procs: 1,
			Deadline: 400, Budget: 1000, PenaltyRate: 0.25, HighUrgency: i%2 == 0,
			Admission: "accepted", Quote: 100,
		})
	}
	if final {
		j.Final(metrics.Report{Submitted: decisions, Accepted: decisions})
	}
	return j
}

// A journal round-trips: parse, rebuild line by line, byte-identical.
func TestParseSessionJournalRoundTrip(t *testing.T) {
	for _, final := range []bool{false, true} {
		src := buildJournal(3, final)
		rec, err := ParseSessionJournal(src.Bytes())
		if err != nil {
			t.Fatalf("final=%v: %v", final, err)
		}
		if rec.Header.ID != "s-1" || rec.Header.Policy != "Libra+$" || rec.Header.Seed != 7 {
			t.Fatalf("header: %+v", rec.Header)
		}
		if len(rec.Decisions) != 3 {
			t.Fatalf("decisions: %d, want 3", len(rec.Decisions))
		}
		if (rec.Final != nil) != final {
			t.Fatalf("final report present: %v, want %v", rec.Final != nil, final)
		}
		if !rec.Decisions[0].HighUrgency || rec.Decisions[1].HighUrgency {
			t.Fatalf("high-urgency flags lost: %+v", rec.Decisions[:2])
		}

		// Rebuild from the record; bytes must match the source exactly.
		rb := NewSessionJournal(rec.Header)
		for _, d := range rec.Decisions {
			rb.Decision(d)
		}
		if rec.Final != nil {
			rb.Final(rec.Final.Report)
		}
		if got, want := string(rb.Bytes()), string(src.Bytes()); got != want {
			t.Errorf("rebuild diverged:\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
}

// Malformed journals fail with a line-numbered error instead of replaying
// into a silently different session.
func TestParseSessionJournalRejectsMalformed(t *testing.T) {
	header := `{"kind":"session","id":"s-1","policy":"Libra","model":"commodity","nodes":8,"base_price":1}`
	decision := `{"kind":"decision","job":1,"submit":0,"runtime":1,"estimate":1,"procs":1,"deadline":2,"budget":3,"admission":"accepted","quote":1}`
	final := `{"kind":"final","report":{}}`
	cases := []struct {
		name, body, want string
	}{
		{"empty", "", "empty session journal"},
		{"blank line", header + "\n\n", "is empty"},
		{"no header", decision + "\n", "starts with a decision"},
		{"final first", final + "\n", "starts with a final"},
		{"second header", header + "\n" + header + "\n", "header after line 1"},
		{"decision after final", header + "\n" + final + "\n" + decision + "\n", "decision after the final"},
		{"second final", header + "\n" + final + "\n" + final + "\n", "second final"},
		{"unknown kind", header + "\n" + `{"kind":"gossip"}` + "\n", "unknown kind"},
		{"not json", header + "\n" + "not json\n", "line 2"},
		// The incremental-consumption cases: streamrisk tails journals as
		// they grow, so a capture cut mid-write must fail with the exact
		// line, not parse as a shorter-but-valid session.
		{"truncated final line", header + "\n" + decision + "\n" + final[:len(final)-9], "line 3"},
		{"truncated decision line", header + "\n" + decision[:len(decision)/2] + "\n", "line 2"},
		{"interleaved garbage", header + "\n" + decision + "\n" + "<<torn write>>\n" + decision + "\n", "line 3"},
		{"duplicate header mid-journal", header + "\n" + decision + "\n" + header + "\n", "header after line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSessionJournal([]byte(tc.body))
			if err == nil {
				t.Fatalf("parsed malformed journal %q", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzSessionJournal fuzzes the journal grammar a control plane trusts
// when it keeps a worker's lines verbatim. ParseSessionJournal must never
// panic, and any journal it accepts, rebuilt from the parsed record, must
// append line by line through OpenSessionJournal and Append to the same
// bytes.
func FuzzSessionJournal(f *testing.F) {
	// The TestParseSessionJournalRejectsMalformed table, plus well-formed
	// journals for the fuzzer to mutate.
	header := `{"kind":"session","id":"s-1","policy":"Libra","model":"commodity","nodes":8,"base_price":1}`
	decision := `{"kind":"decision","job":1,"submit":0,"runtime":1,"estimate":1,"procs":1,"deadline":2,"budget":3,"admission":"accepted","quote":1}`
	final := `{"kind":"final","report":{}}`
	for _, seed := range []string{
		"",
		header + "\n\n",
		decision + "\n",
		final + "\n",
		header + "\n" + header + "\n",
		header + "\n" + final + "\n" + decision + "\n",
		header + "\n" + final + "\n" + final + "\n",
		header + "\n" + `{"kind":"gossip"}` + "\n",
		header + "\n" + "not json\n",
		header + "\n" + decision + "\n" + final[:len(final)-9],
		header + "\n" + decision[:len(decision)/2] + "\n",
		header + "\n" + decision + "\n" + "<<torn write>>\n" + decision + "\n",
		header + "\n" + decision + "\n" + header + "\n",
		header + "\n" + decision + "\n" + final + "\n",
		string(buildJournal(3, false).Bytes()),
		string(buildJournal(2, true).Bytes()),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := ParseSessionJournal(b)
		if err != nil {
			return
		}
		rb := NewSessionJournal(rec.Header)
		for _, d := range rec.Decisions {
			rb.Decision(d)
		}
		if rec.Final != nil {
			rb.Final(rec.Final.Report)
		}
		if err := rb.Err(); err != nil {
			t.Fatalf("rebuilding a parsed journal: %v", err)
		}
		lines := bytes.Split(bytes.TrimSuffix(rb.Bytes(), []byte("\n")), []byte("\n"))
		kept, err := OpenSessionJournal(lines[0])
		if err != nil {
			t.Fatalf("opening the rebuilt header %q: %v", lines[0], err)
		}
		for _, line := range lines[1:] {
			if err := kept.Append(line); err != nil {
				t.Fatalf("appending the rebuilt line %q: %v", line, err)
			}
		}
		if !bytes.Equal(kept.Bytes(), rb.Bytes()) {
			t.Fatalf("kept journal differs from the rebuilt one:\n%s\nvs\n%s", kept.Bytes(), rb.Bytes())
		}
	})
}
