package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestJobValidate(t *testing.T) {
	good := Job{ID: 1, Submit: 0, Runtime: 10, Estimate: 12, Procs: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := map[string]Job{
		"zeroID":      {ID: 0, Runtime: 10, Estimate: 12, Procs: 4},
		"negSubmit":   {ID: 1, Submit: -1, Runtime: 10, Estimate: 12, Procs: 4},
		"zeroRuntime": {ID: 1, Runtime: 0, Estimate: 12, Procs: 4},
		"zeroEst":     {ID: 1, Runtime: 10, Estimate: 0, Procs: 4},
		"zeroProcs":   {ID: 1, Runtime: 10, Estimate: 12, Procs: 0},
	}
	for name, j := range cases {
		j := j
		if err := j.Validate(); err == nil {
			t.Errorf("%s: invalid job accepted", name)
		}
	}
}

func TestHasQoSAndAbsDeadline(t *testing.T) {
	j := Job{ID: 1, Submit: 100, Runtime: 10, Estimate: 10, Procs: 1}
	if j.HasQoS() {
		t.Error("HasQoS true before synthesis")
	}
	j.Deadline = 50
	j.Budget = 20
	if !j.HasQoS() {
		t.Error("HasQoS false after synthesis")
	}
	if j.AbsDeadline() != 150 {
		t.Errorf("AbsDeadline = %v, want 150", j.AbsDeadline())
	}
}

func TestCloneIndependence(t *testing.T) {
	j := &Job{ID: 1, Submit: 5, Runtime: 10, Estimate: 10, Procs: 2}
	c := j.Clone()
	c.Submit = 99
	if j.Submit != 5 {
		t.Error("Clone shares state with original")
	}
	all := CloneAll([]*Job{j})
	all[0].Runtime = 77
	if j.Runtime != 10 {
		t.Error("CloneAll shares state with original")
	}
}

func TestScaleArrivals(t *testing.T) {
	jobs := []*Job{
		{ID: 1, Submit: 100, Runtime: 1, Estimate: 1, Procs: 1},
		{ID: 2, Submit: 700, Runtime: 1, Estimate: 1, Procs: 1},
		{ID: 3, Submit: 1300, Runtime: 1, Estimate: 1, Procs: 1},
	}
	ScaleArrivals(jobs, 0.1)
	if jobs[0].Submit != 100 {
		t.Errorf("first submit moved to %v", jobs[0].Submit)
	}
	if jobs[1].Submit != 160 {
		t.Errorf("second submit = %v, want 160", jobs[1].Submit)
	}
	if jobs[2].Submit != 220 {
		t.Errorf("third submit = %v, want 220", jobs[2].Submit)
	}
}

func TestScaleArrivalsIdentity(t *testing.T) {
	jobs := []*Job{
		{ID: 1, Submit: 0, Runtime: 1, Estimate: 1, Procs: 1},
		{ID: 2, Submit: 600, Runtime: 1, Estimate: 1, Procs: 1},
	}
	ScaleArrivals(jobs, 1.0)
	if jobs[1].Submit != 600 {
		t.Errorf("factor 1.0 changed submit to %v", jobs[1].Submit)
	}
	ScaleArrivals(nil, 0.5) // must not panic
}

func TestScaleArrivalsPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative factor did not panic")
		}
	}()
	ScaleArrivals([]*Job{{ID: 1, Submit: 0, Runtime: 1, Estimate: 1, Procs: 1}, {ID: 2, Submit: 5, Runtime: 1, Estimate: 1, Procs: 1}}, -1)
}

// Property: scaling preserves ordering and scales every gap exactly.
func TestScaleArrivalsProperty(t *testing.T) {
	f := func(gapsRaw []uint16, factorRaw uint8) bool {
		if len(gapsRaw) == 0 {
			return true
		}
		if len(gapsRaw) > 100 {
			gapsRaw = gapsRaw[:100]
		}
		factor := float64(factorRaw%40) / 10 // 0.0 .. 3.9
		jobs := make([]*Job, len(gapsRaw)+1)
		jobs[0] = &Job{ID: 1, Submit: 50, Runtime: 1, Estimate: 1, Procs: 1}
		at := 50.0
		for i, g := range gapsRaw {
			at += float64(g % 1000)
			jobs[i+1] = &Job{ID: i + 2, Submit: at, Runtime: 1, Estimate: 1, Procs: 1}
		}
		orig := make([]float64, len(jobs))
		for i, j := range jobs {
			orig[i] = j.Submit
		}
		ScaleArrivals(jobs, factor)
		for i := 1; i < len(jobs); i++ {
			wantGap := (orig[i] - orig[i-1]) * factor
			gotGap := jobs[i].Submit - jobs[i-1].Submit
			if math.Abs(gotGap-wantGap) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// checkTrace fails the test unless every job is valid and submissions are
// non-decreasing.
func checkTrace(t *testing.T, jobs []*Job) {
	t.Helper()
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if i > 0 && j.Submit < jobs[i-1].Submit {
			t.Fatalf("job %d submitted at %v before the previous job at %v", j.ID, j.Submit, jobs[i-1].Submit)
		}
	}
}

const sampleSWF = `; SDSC SP2 style header
; Computer: IBM SP2
1 0 5 100 4 -1 -1 4 600 -1 1 3 1 -1 1 -1 -1 -1
2 30 -1 200 -1 -1 -1 8 300 -1 1 3 1 -1 1 -1 -1 -1
3 60 0 50 2 -1 -1 2 -1 -1 1 3 1 -1 1 -1 -1 -1
4 90 0 -1 2 -1 -1 2 100 -1 0 3 1 -1 1 -1 -1 -1
`

func TestReadSWF(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3 (job 4 has no runtime)", len(jobs))
	}
	j := jobs[0]
	if j.ID != 1 || j.Submit != 0 || j.Runtime != 100 || j.Procs != 4 || j.Estimate != 600 {
		t.Errorf("job 1 parsed as %+v", *j)
	}
	if jobs[1].Procs != 8 {
		t.Errorf("job 2 should fall back to requested procs, got %d", jobs[1].Procs)
	}
	if jobs[2].Estimate != 50 {
		t.Errorf("job 3 missing estimate should inherit runtime, got %v", jobs[2].Estimate)
	}
}

func TestReadSWFErrors(t *testing.T) {
	if _, err := ReadSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadSWF(strings.NewReader(strings.Replace(sampleSWF, "100", "abc", 1))); err == nil {
		t.Error("non-numeric field accepted")
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig, err := Generate(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig, "synthetic test trace\nsecond header line"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip lost jobs: %d -> %d", len(orig), len(back))
	}
	for i := range orig {
		o, b := orig[i], back[i]
		if o.ID != b.ID || o.Submit != b.Submit || o.Runtime != b.Runtime ||
			o.Estimate != b.Estimate || o.Procs != b.Procs {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, *o, *b)
		}
	}
}

func TestLastN(t *testing.T) {
	jobs := []*Job{
		{ID: 10, Submit: 1000, Runtime: 1, Estimate: 1, Procs: 1},
		{ID: 11, Submit: 2000, Runtime: 1, Estimate: 1, Procs: 1},
		{ID: 12, Submit: 2500, Runtime: 1, Estimate: 1, Procs: 1},
	}
	tail := LastN(jobs, 2)
	if len(tail) != 2 {
		t.Fatalf("LastN returned %d jobs", len(tail))
	}
	if tail[0].Submit != 0 || tail[1].Submit != 500 {
		t.Errorf("rebasing wrong: %v, %v", tail[0].Submit, tail[1].Submit)
	}
	if tail[0].ID != 1 || tail[1].ID != 2 {
		t.Errorf("renumbering wrong: %d, %d", tail[0].ID, tail[1].ID)
	}
	if jobs[1].Submit != 2000 {
		t.Error("LastN mutated the source trace")
	}
	if got := LastN(jobs, 99); len(got) != 3 {
		t.Errorf("LastN larger than trace returned %d jobs", len(got))
	}
}

func smallConfig() SynthConfig {
	cfg := DefaultSynthConfig()
	cfg.Jobs = 400
	return cfg
}

func TestGenerateCalibration(t *testing.T) {
	cfg := DefaultSynthConfig()
	jobs, err := Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, jobs)
	ts := Stats(jobs, 128)
	if math.Abs(ts.MeanInterArrival-1969)/1969 > 0.10 {
		t.Errorf("mean inter-arrival = %v, want ~1969", ts.MeanInterArrival)
	}
	if math.Abs(ts.MeanRuntime-8671)/8671 > 0.10 {
		t.Errorf("mean runtime = %v, want ~8671", ts.MeanRuntime)
	}
	if ts.MeanWidth < 12 || ts.MeanWidth > 22 {
		t.Errorf("mean width = %v, want ~17", ts.MeanWidth)
	}
	if ts.MaxWidth > 128 {
		t.Errorf("width %d exceeds machine size", ts.MaxWidth)
	}
	if math.Abs(ts.UnderEstimateFrac-0.08) > 0.03 {
		t.Errorf("under-estimate fraction = %v, want ~0.08", ts.UnderEstimateFrac)
	}
}

func TestGenerateEstimateInvariants(t *testing.T) {
	jobs, err := Generate(smallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Estimate == j.Runtime {
			t.Errorf("job %d: estimate exactly equals runtime (model should always err one way)", j.ID)
		}
		if j.Runtime <= 0 || j.Runtime > DefaultSynthConfig().MaxRuntime {
			t.Errorf("job %d: runtime %v outside (0, max]", j.ID, j.Runtime)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("same seed produced different job %d: %+v vs %+v", i, *a[i], *b[i])
		}
	}
	c, err := Generate(smallConfig(), 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if *a[i] != *c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	mut := []func(*SynthConfig){
		func(c *SynthConfig) { c.Jobs = 0 },
		func(c *SynthConfig) { c.MeanInterArrival = 0 },
		func(c *SynthConfig) { c.MeanRuntime = -1 },
		func(c *SynthConfig) { c.RuntimeCV = 0 },
		func(c *SynthConfig) { c.MaxRuntime = 1 },
		func(c *SynthConfig) { c.Widths = nil },
		func(c *SynthConfig) { c.WidthWeights = c.WidthWeights[:2] },
		func(c *SynthConfig) { c.UnderEstimateFrac = 1.5 },
		func(c *SynthConfig) { c.MinOverAccuracy = 0 },
		func(c *SynthConfig) { c.EstimateRounding = 0 },
		func(c *SynthConfig) { c.Widths = []int{0, 1, 2, 4, 8, 16, 32, 64} },
	}
	for i, m := range mut {
		cfg := DefaultSynthConfig()
		m(&cfg)
		if _, err := Generate(cfg, 1); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	ts := Stats(nil, 128)
	if ts.Jobs != 0 || ts.OfferedUtilization != 0 {
		t.Errorf("empty stats = %+v", ts)
	}
}

func TestReadSWFRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-Inf", "1e400"} {
		line := "1 0 5 " + bad + " 4 -1 -1 4 600 -1 1 3 1 -1 1 -1 -1 -1\n"
		if _, err := ReadSWF(strings.NewReader(line)); err == nil {
			t.Errorf("runtime %q accepted", bad)
		}
	}
}
