package faults

import (
	"reflect"
	"sync"
	"testing"
)

// Concurrent callers of one key share one generation: every caller gets
// the identical slice, equal to a fresh Generate. Run under -race.
func TestMemoSharesOneGenerationPerKey(t *testing.T) {
	m := new(Memo)
	cfg := highConfig(11)
	const callers = 8
	got := make([][]Event, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events, err := m.Generate(cfg, 64)
			if err != nil {
				t.Error(err)
			}
			got[i] = events
		}(i)
	}
	wg.Wait()
	if len(got[0]) == 0 {
		t.Fatal("high intensity produced no events")
	}
	for i := 1; i < callers; i++ {
		if &got[i][0] != &got[0][0] || len(got[i]) != len(got[0]) {
			t.Fatalf("caller %d received a different slice than caller 0", i)
		}
	}
	fresh, err := Generate(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got[0]) {
		t.Fatal("memoized schedule differs from a fresh Generate")
	}
}

// Keys differing in any input stay distinct, each equal to its own fresh
// generation; an error is memoized with its key.
func TestMemoKeysStayDistinct(t *testing.T) {
	m := new(Memo)
	base := highConfig(11)
	reseeded := base
	reseeded.Seed = 12
	reshaped := base
	reshaped.RepairShape = 3
	keys := []struct {
		cfg   Config
		nodes int
	}{{base, 64}, {base, 65}, {reseeded, 64}, {reshaped, 64}}
	var seen [][]Event
	for _, k := range keys {
		events, err := m.Generate(k.cfg, k.nodes)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Generate(k.cfg, k.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(events, fresh) {
			t.Fatalf("key %+v/%d: memoized schedule differs from a fresh Generate", k.cfg, k.nodes)
		}
		for i, prev := range seen {
			if &prev[0] == &events[0] || reflect.DeepEqual(prev, events) {
				t.Fatalf("key %+v/%d shares its schedule with key %d", k.cfg, k.nodes, i)
			}
		}
		seen = append(seen, events)
	}
	bad := base
	bad.MTTR = -1
	if _, err := m.Generate(bad, 64); err == nil {
		t.Fatal("invalid config generated through the memo")
	}
	if _, err := m.Generate(bad, 64); err == nil {
		t.Fatal("memoized invalid config lost its error")
	}
}

// A nil memo generates afresh on every call.
func TestNilMemoGeneratesAfresh(t *testing.T) {
	var m *Memo
	cfg := highConfig(11)
	a, err := m.Generate(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] == &b[0] {
		t.Fatal("a nil memo returned a shared slice")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("a nil memo's fresh schedules differ")
	}
}
