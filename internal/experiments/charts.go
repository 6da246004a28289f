package experiments

import (
	"fmt"

	"cosched/internal/chart"
	"cosched/internal/cosched"
)

// NamedChart pairs a file stem ("fig3a") with a renderable chart.
type NamedChart struct {
	Name  string
	Chart *chart.BarChart
}

// comboNames is the fixed series order for figure charts (matches Combos).
var comboNames = []string{"HH", "HY", "YH", "YY"}

// Charts renders the sweep's four figures, (a) and (b) panels each: 3–6
// for the load sweep, 7–10 for the proportion sweep.
func (s *Sweep) Charts() []NamedChart {
	sp := s.spec
	panel := func(n int, side, what string, c *chart.BarChart) NamedChart {
		machine := map[string]string{"a": "Intrepid", "b": "Eureka"}[side]
		c.Title = fmt.Sprintf("Figure %d(%s): %s %s", sp.firstFig+n, side, machine, what)
		return NamedChart{fmt.Sprintf("fig%d%s", sp.firstFig+n, side), c}
	}
	out := []NamedChart{
		panel(0, "a", "avg. wait by "+sp.by, s.comboChart("minutes", "%.1f",
			func(c *Cell) float64 { return c.IntrepidWait }, func(b *Baseline) float64 { return b.IntrepidWait })),
		panel(0, "b", "avg. wait by "+sp.by, s.comboChart("minutes", "%.1f",
			func(c *Cell) float64 { return c.EurekaWait }, func(b *Baseline) float64 { return b.EurekaWait })),
		panel(1, "a", "avg. slowdown by "+sp.by, s.comboChart("slowdown", sp.slowdownFmt,
			func(c *Cell) float64 { return c.IntrepidSlowdown }, func(b *Baseline) float64 { return b.IntrepidSlowdown })),
		panel(1, "b", "avg. slowdown by "+sp.by, s.comboChart("slowdown", sp.slowdownFmt,
			func(c *Cell) float64 { return c.EurekaSlowdown }, func(b *Baseline) float64 { return b.EurekaSlowdown })),
	}
	if sp.kind == KindLoad {
		// Figures 5 and 6 are drawn the way the paper draws them: one group
		// per (load, remote scheme).
		return append(out,
			panel(2, "a", "paired-job sync time", s.syncChart(true)),
			panel(2, "b", "paired-job sync time", s.syncChart(false)),
			panel(3, "a", "service-unit loss (hold side)", s.lossChart(true)),
			panel(3, "b", "service-unit loss (hold side)", s.lossChart(false)))
	}
	// Figures 9 and 10 keep one bar per combo at each proportion.
	return append(out,
		panel(2, "a", "paired-job sync time by proportion", s.comboChart("minutes", "%.1f",
			func(c *Cell) float64 { return c.IntrepidSync }, nil)),
		panel(2, "b", "paired-job sync time by proportion", s.comboChart("minutes", "%.1f",
			func(c *Cell) float64 { return c.EurekaSync }, nil)),
		panel(3, "a", "service-unit loss by proportion", s.comboChart("node-hours", "%.0f",
			func(c *Cell) float64 { return c.IntrepidLossNH }, nil)),
		panel(3, "b", "service-unit loss by proportion", s.comboChart("node-hours", "%.0f",
			func(c *Cell) float64 { return c.EurekaLossNH }, nil)))
}

// comboChart builds a combos-by-sweep-point grouped bar chart, with the
// baseline reference when base is non-nil.
func (s *Sweep) comboChart(ylabel, valueFmt string, cell func(*Cell) float64, base func(*Baseline) float64) *chart.BarChart {
	c := &chart.BarChart{YLabel: ylabel, Series: comboNames, HasBaseline: base != nil, ValueFmt: valueFmt}
	for _, x := range s.Points {
		g := chart.Group{Label: s.spec.label(x)}
		if base != nil {
			g.Baseline = base(s.Baselines[x])
		}
		for _, combo := range Combos {
			g.Values = append(g.Values, cell(s.Cell(x, combo)))
		}
		c.Groups = append(c.Groups, g)
	}
	return c
}

// syncChart builds the Figure 5 shape: (point, remote scheme) groups with
// local hold/yield bars.
func (s *Sweep) syncChart(intrepid bool) *chart.BarChart {
	c := &chart.BarChart{YLabel: "minutes", Series: []string{"local=hold", "local=yield"}, ValueFmt: "%.1f"}
	for _, x := range s.Points {
		for _, remote := range schemes {
			var h, y float64
			if intrepid {
				h = s.Cell(x, Combo{Intrepid: cosched.Hold, Eureka: remote}).IntrepidSync
				y = s.Cell(x, Combo{Intrepid: cosched.Yield, Eureka: remote}).IntrepidSync
			} else {
				h = s.Cell(x, Combo{Intrepid: remote, Eureka: cosched.Hold}).EurekaSync
				y = s.Cell(x, Combo{Intrepid: remote, Eureka: cosched.Yield}).EurekaSync
			}
			c.Groups = append(c.Groups, chart.Group{
				Label:  s.spec.label(x) + "/" + remote.Short(),
				Values: []float64{h, y},
			})
		}
	}
	return c
}

// lossChart builds the Figure 6 shape: single node-hour series per
// (point, remote) group.
func (s *Sweep) lossChart(intrepid bool) *chart.BarChart {
	c := &chart.BarChart{YLabel: "node-hours", Series: []string{"node-hours"}, ValueFmt: "%.0f"}
	for _, x := range s.Points {
		for _, remote := range schemes {
			var v float64
			if intrepid {
				v = s.Cell(x, Combo{Intrepid: cosched.Hold, Eureka: remote}).IntrepidLossNH
			} else {
				v = s.Cell(x, Combo{Intrepid: remote, Eureka: cosched.Hold}).EurekaLossNH
			}
			c.Groups = append(c.Groups, chart.Group{
				Label:  s.spec.label(x) + "/" + remote.Short(),
				Values: []float64{v},
			})
		}
	}
	return c
}

// Chart renders the N-way sweep as a grouped bar chart (group sync by
// width and scheme).
func (s *NWaySweep) Chart() NamedChart {
	c := &chart.BarChart{
		Title:  "N-way extension: group sync time by width",
		YLabel: "minutes", Series: []string{"hold", "yield"}, ValueFmt: "%.1f",
	}
	for _, w := range NWayWidths {
		g := chart.Group{Label: fmt.Sprintf("width %d", w)}
		for _, scheme := range schemes {
			for _, r := range s.Rows {
				if r.Width == w && r.Scheme == scheme {
					g.Values = append(g.Values, r.GroupSync)
				}
			}
		}
		c.Groups = append(c.Groups, g)
	}
	return NamedChart{"nway", c}
}
