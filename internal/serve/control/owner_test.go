package control

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// placementPlane builds a plane whose worker table holds the named
// workers, all healthy. It routes no session, so no worker is contacted
// and the URLs need not answer.
func placementPlane(t *testing.T, names ...string) *Plane {
	t.Helper()
	p := New(Config{})
	for _, name := range names {
		if err := p.Register(name, "http://"+name+".invalid"); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// workerNames returns n worker names in the service plane's spelling.
func workerNames(n int) []string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("w-%d", i+1)
	}
	return ws
}

// sessionIDs returns the first n IDs of the plane's s-N namespace.
func sessionIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%d", i+1)
	}
	return ids
}

// ownersOf maps each session to the owner the plane names for it now.
func ownersOf(p *Plane, ids []string) map[string]string {
	m := make(map[string]string, len(ids))
	for _, id := range ids {
		m[id] = p.ownerFor(id)
	}
	return m
}

// 1k sessions over 8 workers land within ±35% of the per-worker mean: the
// load spread the plane relies on when it places sessions by owner alone.
func TestOwnerDistributionBound(t *testing.T) {
	ws := workerNames(8)
	ids := sessionIDs(1000)
	counts := make(map[string]int)
	for _, owner := range ownersOf(placementPlane(t, ws...), ids) {
		counts[owner]++
	}
	mean := float64(len(ids)) / float64(len(ws))
	for _, w := range ws {
		c := counts[w]
		if dev := (float64(c) - mean) / mean; dev < -0.35 || dev > 0.35 {
			t.Errorf("worker %s owns %d of %d sessions (%.0f%% of mean %.0f), outside the ±35%% bound",
				w, c, len(ids), 100*float64(c)/mean, mean)
		}
	}
}

// A join moves only sessions the joiner now wins (roughly 1/(n+1) of
// them), every one of them to the joiner; removing the joiner restores
// every owner.
func TestOwnerMinimalMovement(t *testing.T) {
	ids := sessionIDs(1000)
	p := placementPlane(t, workerNames(8)...)
	before := ownersOf(p, ids)

	if err := p.Register("w-9", "http://w-9.invalid"); err != nil {
		t.Fatal(err)
	}
	after := ownersOf(p, ids)
	moved := 0
	for _, id := range ids {
		if before[id] != after[id] {
			moved++
			if after[id] != "w-9" {
				t.Errorf("session %s moved %s -> %s on a join; a join may only move sessions to the joiner",
					id, before[id], after[id])
			}
		}
	}
	// Expect ~1/9 ≈ 111 moves: the joiner takes real load and the bulk of
	// the sessions stay where they were.
	if moved == 0 || moved > 250 {
		t.Errorf("join moved %d of %d sessions, want (0, 250]", moved, len(ids))
	}

	if err := p.Deregister("w-9"); err != nil {
		t.Fatal(err)
	}
	restored := ownersOf(p, ids)
	for _, id := range ids {
		if restored[id] != before[id] {
			t.Errorf("session %s owned by %s before the join but %s after the leave", id, before[id], restored[id])
		}
	}
}

// The golden owner table pins placement across Go versions and refactors:
// the score is computed in-package, so these bytes may only change with a
// deliberate change of the score (regenerate with -update).
func TestOwnerGolden(t *testing.T) {
	p := placementPlane(t, workerNames(4)...)
	var buf bytes.Buffer
	for _, id := range sessionIDs(32) {
		fmt.Fprintf(&buf, "%s %s\n", id, p.ownerFor(id))
	}
	golden := filepath.Join("testdata", "owners.golden")
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
		t.Errorf("owners diverged from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// Only healthy workers that are not draining own sessions: a dead and a
// draining worker own none, and the others own exactly what they would
// own alone. The last eligible worker owns every session; with none the
// owner is "".
func TestOwnerEligibility(t *testing.T) {
	ids := sessionIDs(200)
	if owner := placementPlane(t).ownerFor("s-1"); owner != "" {
		t.Errorf("a plane with no workers named owner %q", owner)
	}
	p := placementPlane(t, workerNames(4)...)
	p.markDead("w-2")
	if _, err := p.leave("w-3"); err != nil {
		t.Fatal(err)
	}
	got, want := ownersOf(p, ids), ownersOf(placementPlane(t, "w-1", "w-4"), ids)
	for _, id := range ids {
		if got[id] != want[id] {
			t.Errorf("session %s owned by %s with w-2 dead and w-3 draining, want %s", id, got[id], want[id])
		}
	}
	p.markDead("w-1")
	for _, id := range ids {
		if owner := p.ownerFor(id); owner != "w-4" {
			t.Fatalf("session %s owned by %q with w-4 the only eligible worker", id, owner)
		}
	}
	p.markDead("w-4")
	for _, id := range ids {
		if owner := p.ownerFor(id); owner != "" {
			t.Errorf("session %s owned by %s with no worker eligible", id, owner)
		}
	}
}
