package ring

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// workers returns n worker names in the service plane's spelling.
func workers(n int) []string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("w-%d", i+1)
	}
	return ws
}

// build returns a ring populated with the given members.
func build(t *testing.T, members []string) *Ring {
	t.Helper()
	r := New()
	for _, m := range members {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sessionIDs returns the first n IDs in the service plane's s-N namespace.
func sessionIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%d", i+1)
	}
	return ids
}

// owners maps each key to its owner.
func owners(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q on a %d-member ring", k, r.Size())
		}
		m[k] = o
	}
	return m
}

// 1k sessions over 8 workers land within ±35% of the per-worker mean at
// 128 virtual nodes per member — the load-spread bound the control plane
// relies on when it places sessions by ring owner alone.
func TestRingDistributionBound(t *testing.T) {
	ws := workers(8)
	r := build(t, ws)
	ids := sessionIDs(1000)
	counts := make(map[string]int)
	for _, id := range ids {
		o, _ := r.Owner(id)
		counts[o]++
	}
	mean := float64(len(ids)) / float64(len(ws))
	for _, w := range ws {
		c := counts[w]
		if c == 0 {
			t.Fatalf("worker %s owns no sessions", w)
		}
		if dev := (float64(c) - mean) / mean; dev < -0.35 || dev > 0.35 {
			t.Errorf("worker %s owns %d of %d sessions (%.0f%% of mean %.0f) — outside the ±35%% bound",
				w, c, len(ids), 100*float64(c)/mean, mean)
		}
	}
}

// Adding a worker moves only keys that now belong to it (roughly 1/(n+1)
// of the keyspace) and every moved key moves TO the new worker; removing
// it restores the previous assignment exactly.
func TestRingMinimalMovement(t *testing.T) {
	ids := sessionIDs(1000)
	r := build(t, workers(8))
	before := owners(t, r, ids)

	if err := r.Add("w-9"); err != nil {
		t.Fatal(err)
	}
	after := owners(t, r, ids)
	moved := 0
	for _, id := range ids {
		if before[id] != after[id] {
			moved++
			if after[id] != "w-9" {
				t.Errorf("session %s moved %s -> %s on a join; joins may only move keys to the joiner",
					id, before[id], after[id])
			}
		}
	}
	// Expect ~1/9 ≈ 111 moves; allow generous slack but require the bulk
	// of the keyspace to be undisturbed and the joiner to take real load.
	if moved == 0 || moved > 250 {
		t.Errorf("join moved %d of %d sessions, want (0, 250]", moved, len(ids))
	}

	if err := r.Remove("w-9"); err != nil {
		t.Fatal(err)
	}
	restored := owners(t, r, ids)
	for _, id := range ids {
		if before[id] != restored[id] {
			t.Errorf("session %s owned by %s before the join but %s after the leave", id, before[id], restored[id])
		}
	}
}

// The golden assignment fixture pins routing across Go versions and
// refactors: FNV-1a is computed in-package, so these bytes may only change
// with a deliberate hash change (regenerate with -update).
func TestRingGoldenAssignments(t *testing.T) {
	r := build(t, workers(4))
	var buf bytes.Buffer
	for _, id := range sessionIDs(32) {
		o, _ := r.Owner(id)
		fmt.Fprintf(&buf, "%s %s\n", id, o)
	}
	golden := filepath.Join("testdata", "assignments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("ring assignments diverged from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// Membership bookkeeping: duplicate adds and absent removes are refused,
// Owner on an empty ring reports no owner, and Members sorts.
func TestRingMembership(t *testing.T) {
	r := New()
	if _, ok := r.Owner("s-1"); ok {
		t.Error("empty ring claimed an owner")
	}
	if err := r.Add(""); err == nil {
		t.Error("empty member name accepted")
	}
	if err := r.Add("w-2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("w-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("w-1"); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := r.Remove("w-3"); err == nil {
		t.Error("absent remove accepted")
	}
	if got := r.Members(); len(got) != 2 || got[0] != "w-1" || got[1] != "w-2" {
		t.Errorf("Members() = %v, want [w-1 w-2]", got)
	}
	if !r.Has("w-1") || r.Has("w-3") {
		t.Error("Has bookkeeping wrong")
	}
	if err := r.Remove("w-1"); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Errorf("Size() = %d, want 1", r.Size())
	}
	// A 1-member ring owns everything.
	for _, id := range sessionIDs(16) {
		if o, ok := r.Owner(id); !ok || o != "w-2" {
			t.Fatalf("1-member ring: Owner(%s) = %q, %v", id, o, ok)
		}
	}
}

// Size and Members are test-only views of the membership: routing reads
// it through Has and Owner.

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the membership in sorted order.
func (r *Ring) Members() []string {
	ms := make([]string, 0, len(r.members))
	for m := range r.members {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}
