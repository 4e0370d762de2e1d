package plot

import (
	"strings"
	"testing"

	"repro/internal/risk"
)

func sample() []risk.Series { return risk.SamplePolicies() }

func TestASCIIContainsAxesAndLegend(t *testing.T) {
	out := ASCII(sample(), Config{Title: "Figure 1", XMax: 1.0})
	if !strings.Contains(out, "Figure 1") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Volatility") {
		t.Error("x label missing")
	}
	for _, p := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		if !strings.Contains(out, " "+p+"\n") {
			t.Errorf("legend entry for %s missing", p)
		}
	}
	// Policy A's marker (first series, 'o') must land at the top-left
	// corner: performance 1, volatility 0.
	lines := strings.Split(out, "\n")
	var firstRow string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			firstRow = l
			break
		}
	}
	if !strings.Contains(firstRow, "o") {
		t.Errorf("ideal policy marker not on top row: %q", firstRow)
	}
	if idx := strings.Index(firstRow, "o"); idx != strings.Index(firstRow, "|")+1 {
		t.Errorf("ideal policy marker not at zero volatility: %q", firstRow)
	}
}

func TestASCIICollisionMarker(t *testing.T) {
	series := []risk.Series{
		{Policy: "p1", Points: []risk.Point{{Performance: 0.5, Volatility: 0.25}}},
		{Policy: "p2", Points: []risk.Point{{Performance: 0.5, Volatility: 0.25}}},
	}
	out := ASCII(series, Config{})
	if !strings.Contains(out, "?") {
		t.Error("colliding points of different policies not marked")
	}
}

func TestASCIIClampsOutOfRange(t *testing.T) {
	series := []risk.Series{
		{Policy: "wild", Points: []risk.Point{{Performance: 2.0, Volatility: 9.0}}},
	}
	out := ASCII(series, Config{}) // must not panic
	if out == "" {
		t.Error("empty plot")
	}
}

func TestSVGWellFormed(t *testing.T) {
	out := SVG(sample(), Config{Title: "Sample <plot> & more", XMax: 1.0, TrendLines: true})
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Error("not an SVG document")
	}
	if strings.Contains(out, "<plot>") {
		t.Error("title not XML-escaped")
	}
	if !strings.Contains(out, "&lt;plot&gt;") {
		t.Error("escaped title missing")
	}
	// 8 policies × 5 points + 8 legend dots = 48 circles.
	if got := strings.Count(out, "<circle"); got != 48 {
		t.Errorf("circle count = %d, want 48", got)
	}
	// Trend lines for every policy except A (identical points, but A still
	// has LinearFit failure -> no line) — at least some dashed lines.
	if !strings.Contains(out, "stroke-dasharray") {
		t.Error("no trend lines emitted")
	}
}

func TestSVGNoTrendLinesWhenDisabled(t *testing.T) {
	out := SVG(sample(), Config{XMax: 1.0})
	if strings.Contains(out, "stroke-dasharray") {
		t.Error("trend lines emitted despite TrendLines=false")
	}
}

func TestGnuplotData(t *testing.T) {
	out := GnuplotData(sample())
	if strings.Count(out, "# ") != 8 {
		t.Errorf("index comment count = %d, want 8", strings.Count(out, "# "))
	}
	if strings.Count(out, "\n\n\n") != 8 {
		t.Errorf("gnuplot index separators = %d, want 8", strings.Count(out, "\n\n\n"))
	}
	if !strings.Contains(out, "0.000000 1.000000") {
		t.Error("policy A's ideal point missing")
	}
}

func TestCSV(t *testing.T) {
	out := CSV(sample())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "policy,scenario,volatility,performance" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+8*5 {
		t.Errorf("row count = %d, want 41", len(lines))
	}
}

func TestSummaryTable(t *testing.T) {
	out, err := SummaryTable(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Policy", "A", "Decreasing", "Increasing", "NA", "Zero"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q", want)
		}
	}
	if _, err := SummaryTable([]risk.Series{{Policy: "empty"}}); err == nil {
		t.Error("empty series summarized without error")
	}
}

func TestMarkerCycles(t *testing.T) {
	if Marker(0) == Marker(1) {
		t.Error("adjacent markers identical")
	}
	if Marker(0) != Marker(len("ox*+#@%&$~")) {
		t.Error("markers do not cycle")
	}
}

func TestCSVWithLabels(t *testing.T) {
	series := []risk.Series{{
		Policy: "Libra",
		Points: []risk.Point{{Performance: 0.9, Volatility: 0.1}, {Performance: 0.8, Volatility: 0.2}},
		Labels: []string{"workload", `odd,"label`},
	}}
	out := CSV(series)
	if !strings.Contains(out, "Libra,workload,0.100000,0.900000") {
		t.Errorf("labelled row missing:\n%s", out)
	}
	if !strings.Contains(out, `"odd,""label"`) {
		t.Errorf("label not CSV-quoted:\n%s", out)
	}
}

func TestGnuplotScript(t *testing.T) {
	out := GnuplotScript(sample(), "plot.dat", Config{Title: "Fig", XMax: 1.0})
	for _, want := range []string{
		`set title "Fig"`,
		"set xrange [0:1]",
		`"plot.dat" index 0 title "A"`,
		`index 7 title "H"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("script missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "index") != 8 {
		t.Errorf("index count = %d, want 8", strings.Count(out, "index"))
	}
}
