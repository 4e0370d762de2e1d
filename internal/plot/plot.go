package plot

import (
	"fmt"
	"strings"

	"repro/internal/risk"
	"repro/internal/stats"
)

// Config parameterizes a plot.
type Config struct {
	Title string
	// XMax bounds the volatility axis; the paper uses 0.5 (the maximum
	// possible standard deviation of [0,1] data). YMax bounds performance
	// (1.0). Zero values take these defaults.
	XMax, YMax float64
	// Width and Height are the ASCII canvas size in characters (default
	// 61×21, giving ticks every 0.1/0.05).
	Width, Height int
	// TrendLines adds least-squares trend lines (SVG only).
	TrendLines bool
}

func (c Config) withDefaults() Config {
	if c.XMax <= 0 {
		c.XMax = 0.5
	}
	if c.YMax <= 0 {
		c.YMax = 1.0
	}
	if c.Width <= 0 {
		c.Width = 61
	}
	if c.Height <= 0 {
		c.Height = 21
	}
	return c
}

// markers are the per-series glyphs, in series order.
var markers = []rune{'o', 'x', '*', '+', '#', '@', '%', '&', '$', '~'}

// Marker returns the glyph used for series i.
func Marker(i int) rune { return markers[i%len(markers)] }

// ASCII renders the plot as a terminal-friendly string: a bordered canvas,
// y axis from 0 to YMax, x axis from 0 to XMax, and a legend. Points
// outside the axes are clamped onto the border.
func ASCII(series []risk.Series, cfg Config) string {
	cfg = cfg.withDefaults()
	w, h := cfg.Width, cfg.Height
	grid := make([][]rune, h)
	for y := range grid {
		grid[y] = make([]rune, w)
		for x := range grid[y] {
			grid[y][x] = ' '
		}
	}
	plotPoint := func(p risk.Point, m rune) {
		x := int(stats.Clamp(p.Volatility/cfg.XMax, 0, 1) * float64(w-1))
		y := int(stats.Clamp(p.Performance/cfg.YMax, 0, 1) * float64(h-1))
		row := h - 1 - y
		if grid[row][x] != ' ' && grid[row][x] != m {
			grid[row][x] = '?' // collision of different policies
			return
		}
		grid[row][x] = m
	}
	for i, s := range series {
		for _, p := range s.Points {
			plotPoint(p, Marker(i))
		}
	}
	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	fmt.Fprintf(&b, "%4.2f +%s+\n", cfg.YMax, strings.Repeat("-", w))
	for y := 0; y < h; y++ {
		label := "     "
		if y == h/2 {
			label = fmt.Sprintf("%4.2f ", cfg.YMax/2)
		}
		fmt.Fprintf(&b, "%s|%s|\n", label, string(grid[y]))
	}
	fmt.Fprintf(&b, "%4.2f +%s+\n", 0.0, strings.Repeat("-", w))
	fmt.Fprintf(&b, "     0%sVolatility%s%.2f\n",
		strings.Repeat(" ", (w-10)/2), strings.Repeat(" ", w-10-(w-10)/2-4), cfg.XMax)
	for i, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", Marker(i), s.Policy)
	}
	return b.String()
}

// svgPalette gives each series a distinct stroke.
var svgPalette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
	"#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
}

// SVG renders the plot as a standalone SVG document with axes, points, and
// (optionally) trend lines.
func SVG(series []risk.Series, cfg Config) string {
	cfg = cfg.withDefaults()
	const (
		width, height = 480, 360
		left, right   = 60, 20
		top, bottom   = 36, 48
	)
	plotW := float64(width - left - right)
	plotH := float64(height - top - bottom)
	xOf := func(v float64) float64 { return float64(left) + stats.Clamp(v/cfg.XMax, 0, 1)*plotW }
	yOf := func(p float64) float64 { return float64(top) + (1-stats.Clamp(p/cfg.YMax, 0, 1))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if cfg.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="18" text-anchor="middle" font-size="13">%s</text>`+"\n", width/2, escapeXML(cfg.Title))
	}
	// Axes and ticks.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="black"/>`+"\n", left, top, plotW, plotH)
	for i := 0; i <= 5; i++ {
		xv := cfg.XMax * float64(i) / 5
		yv := cfg.YMax * float64(i) / 5
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" text-anchor="middle">%.1f</text>`+"\n", xOf(xv), height-bottom+16, xv)
		fmt.Fprintf(&b, `<text x="%d" y="%.0f" text-anchor="end">%.1f</text>`+"\n", left-6, yOf(yv)+4, yv)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">Volatility (Standard Deviation)</text>`+"\n", left+int(plotW)/2, height-12)
	fmt.Fprintf(&b, `<text x="14" y="%d" transform="rotate(-90 14 %d)" text-anchor="middle">Performance</text>`+"\n", top+int(plotH)/2, top+int(plotH)/2)

	for i, s := range series {
		color := svgPalette[i%len(svgPalette)]
		if cfg.TrendLines {
			if x0, y0, x1, y1, ok := trendSegment(s, cfg); ok {
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-dasharray="4 3" opacity="0.6"/>`+"\n",
					xOf(x0), yOf(y0), xOf(x1), yOf(y1), color)
			}
		}
		for _, p := range s.Points {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s" opacity="0.85"/>`+"\n", xOf(p.Volatility), yOf(p.Performance), color)
		}
		// Legend.
		lx, ly := width-140, top+14+16*i
		fmt.Fprintf(&b, `<circle cx="%d" cy="%d" r="3.5" fill="%s"/>`+"\n", lx, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", lx+8, ly+4, escapeXML(s.Policy))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// trendSegment fits the series' trend line and clips it to the observed
// volatility range.
func trendSegment(s risk.Series, cfg Config) (x0, y0, x1, y1 float64, ok bool) {
	if len(s.Points) < 2 {
		return 0, 0, 0, 0, false
	}
	xs := make([]float64, len(s.Points))
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.Volatility
		ys[i] = p.Performance
	}
	slope, intercept, fit := stats.LinearFit(xs, ys)
	if !fit {
		return 0, 0, 0, 0, false
	}
	lo, hi := stats.MinMax(xs)
	return lo, slope*lo + intercept, hi, slope*hi + intercept, true
}

// GnuplotData emits the series as gnuplot-ready blocks: one index per
// policy, "volatility performance" rows, matching how the paper's figures
// are drawn.
func GnuplotData(series []risk.Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "# %s\n", s.Policy)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%.6f %.6f\n", p.Volatility, p.Performance)
		}
		b.WriteString("\n\n")
	}
	return b.String()
}

// CSV emits the series as policy,scenario,volatility,performance rows with
// a header; the scenario column carries the label when the series has one
// and the point index otherwise. Labels containing commas are quoted.
func CSV(series []risk.Series) string {
	var b strings.Builder
	b.WriteString("policy,scenario,volatility,performance\n")
	for _, s := range series {
		for i, p := range s.Points {
			label := s.Label(i)
			if strings.ContainsAny(label, ",\"") {
				label = `"` + strings.ReplaceAll(label, `"`, `""`) + `"`
			}
			fmt.Fprintf(&b, "%s,%s,%.6f,%.6f\n", s.Policy, label, p.Volatility, p.Performance)
		}
	}
	return b.String()
}

// SummaryTable formats Table II-style summaries for the series, sorted as
// given.
func SummaryTable(series []risk.Series) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s %8s %12s\n",
		"Policy", "MaxPerf", "MinPerf", "PerfDiff", "MaxVol", "MinVol", "VolDiff", "Gradient")
	for _, s := range series {
		sum, err := risk.Summarize(s)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %12s\n",
			s.Policy, sum.MaxPerformance, sum.MinPerformance, sum.PerformanceDifference,
			sum.MaxVolatility, sum.MinVolatility, sum.VolatilityDifference, risk.TrendGradient(s))
	}
	return b.String(), nil
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// GnuplotScript emits a runnable gnuplot script that renders the series
// from a data file previously written with GnuplotData — the toolchain the
// paper's own figures use. Run as: gnuplot -persist plot.gp
func GnuplotScript(series []risk.Series, dataFile string, cfg Config) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "set title %q\n", cfg.Title)
	b.WriteString("set xlabel 'Volatility (Standard Deviation)'\n")
	b.WriteString("set ylabel 'Performance'\n")
	fmt.Fprintf(&b, "set xrange [0:%g]\nset yrange [0:%g]\n", cfg.XMax, cfg.YMax)
	b.WriteString("set key outside right\n")
	b.WriteString("plot \\\n")
	for i, s := range series {
		sep := ", \\\n"
		if i == len(series)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "  %q index %d title %q with points pointtype %d%s",
			dataFile, i, s.Policy, i+1, sep)
	}
	return b.String()
}
