package streamrisk

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/risk"
)

// encoder appends the wire encoding of Snapshot, Delta and Scores to buf.
// The bytes are exactly what json.Marshal produces for the same value,
// written without reflection: fields in declaration order under their
// tags, integers through strconv, floats by encoding/json's own rule, and
// strings raw unless json.Marshal would escape something in them. Only
// that string fallback reflects, and only it allocates once buf has grown.
//
// The first value JSON cannot represent (±Inf, NaN) is kept in err as the
// error json.Marshal reports for it; buf is then incomplete and must not
// be sent.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) reset() {
	e.buf = e.buf[:0]
	e.err = nil
}

// Every append helper writes its key first: the field's tag with the
// punctuation before it, e.g. `,"quote_sum":`.

func (e *encoder) int(key string, v int64) {
	e.buf = append(e.buf, key...)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *encoder) uint(key string, v uint64) {
	e.buf = append(e.buf, key...)
	e.buf = strconv.AppendUint(e.buf, v, 10)
}

// float formats f as encoding/json does: the shortest representation that
// round-trips, in 'f' form unless |f| is below 1e-6 or at least 1e21,
// where it takes 'e' form with a one-digit negative exponent unpadded
// (e-07 → e-7).
func (e *encoder) float(key string, f float64) {
	e.buf = append(e.buf, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow floateq — exact-zero test mirrors encoding/json: ±0 stays in 'f' form
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// str appends s as a JSON string. Scope names are printable ASCII in
// practice and are copied between quotes as they are; a name json.Marshal
// would escape or rewrite (", \, <, >, &, control bytes, and any non-ASCII
// byte, which covers invalid UTF-8 and U+2028) goes through json.Marshal.
func (e *encoder) str(key, s string) {
	e.buf = append(e.buf, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = err
			}
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

func (e *encoder) point(key string, p risk.Point) {
	e.buf = append(e.buf, key...)
	e.float(`{"Performance":`, p.Performance)
	e.float(`,"Volatility":`, p.Volatility)
	e.buf = append(e.buf, '}')
}

func (e *encoder) points(key string, ps *[NumObjectives]risk.Point) {
	e.buf = append(e.buf, key...)
	for i, p := range ps {
		if i == 0 {
			e.point("[", p)
		} else {
			e.point(",", p)
		}
	}
	e.buf = append(e.buf, ']')
}

// scoreFields appends s's fields without braces: a Scores value embedded
// in ScopeScores or SessionScopeScores flattens into its parent object.
func (e *encoder) scoreFields(s *Scores) {
	e.int(`"events":`, s.Events)
	e.int(`,"accepted":`, s.Accepted)
	e.int(`,"rejected":`, s.Rejected)
	e.int(`,"finals":`, s.Finals)
	e.float(`,"quote_sum":`, s.QuoteSum)
	e.float(`,"budget_sum":`, s.BudgetSum)
	e.float(`,"utility_sum":`, s.UtilitySum)
	e.float(`,"settled_budget_sum":`, s.SettledBudgetSum)
	e.int(`,"submitted_sum":`, s.SubmittedSum)
	e.int(`,"fulfilled_sum":`, s.FulfilledSum)
	e.int(`,"killed_sum":`, s.KilledSum)
	e.float(`,"acceptance_ratio":`, s.AcceptanceRatio)
	e.float(`,"budget_ratio":`, s.BudgetRatio)
	e.float(`,"utility_ratio":`, s.UtilityRatio)
	e.float(`,"deadline_ratio":`, s.DeadlineRatio)
	e.points(`,"cumulative":`, &s.Cumulative)
	e.point(`,"integrated":`, s.Integrated)
	e.int(`,"window_size":`, int64(s.WindowSize))
	e.points(`,"window":`, &s.Window)
	e.point(`,"window_integrated":`, s.WindowIntegrated)
}

func (e *encoder) scores(key string, s *Scores) {
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '{')
	e.scoreFields(s)
	e.buf = append(e.buf, '}')
}

func (e *encoder) scopes(key string, ss []ScopeScores) {
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '[')
	for i := range ss {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.str(`{"name":`, ss[i].Name)
		e.buf = append(e.buf, ',')
		e.scoreFields(&ss[i].Scores)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
}

func (e *encoder) snapshot(s *Snapshot) {
	e.uint(`{"seq":`, s.Seq)
	e.uint(`,"published":`, s.Published)
	e.uint(`,"dropped":`, s.Dropped)
	e.scores(`,"global":`, &s.Global)
	// The scope lists are tagged omitempty: json.Marshal leaves out an
	// empty slice as well as a nil one.
	if len(s.Policies) > 0 {
		e.scopes(`,"policies":`, s.Policies)
	}
	if len(s.Clusters) > 0 {
		e.scopes(`,"clusters":`, s.Clusters)
	}
	if len(s.Sessions) > 0 {
		e.buf = append(e.buf, `,"sessions":[`...)
		for i := range s.Sessions {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			ss := &s.Sessions[i]
			e.str(`{"id":`, ss.ID)
			e.str(`,"policy":`, ss.Policy)
			e.str(`,"cluster":`, ss.Cluster)
			e.buf = append(e.buf, ',')
			e.scoreFields(&ss.Scores)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

// delta writes the sequence first: subscribers that need only the
// sequence read it from the `{"seq":` prefix without decoding the rest.
func (e *encoder) delta(d *Delta) {
	e.uint(`{"seq":`, d.Seq)
	e.str(`,"kind":`, d.Kind)
	e.str(`,"session":`, d.Session)
	e.str(`,"policy":`, d.Policy)
	e.str(`,"cluster":`, d.Cluster)
	e.scores(`,"session_scores":`, &d.SessionScores)
	e.scores(`,"policy_scores":`, &d.PolicyScores)
	e.scores(`,"cluster_scores":`, &d.ClusterScores)
	e.scores(`,"global":`, &d.Global)
	e.buf = append(e.buf, '}')
}
