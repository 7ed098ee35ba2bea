// blacklist-latency sweeps a blacklist's listing latency and listing
// probabilities, showing the operational trade-off the paper's timing
// analysis exposes: a slow blacklist still covers the same domains but
// lists them after spammers have already monetized their campaigns.
package main

import (
	"fmt"
	"os"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/report"
	"tasterschoice/internal/simulate"
)

func main() {
	type sweep struct {
		name         string
		latencyHours float64
		loudProb     float64
	}
	sweeps := []sweep{
		{"instant", 0.5, 0.97},
		{"fast (paper dbl)", 7, 0.97},
		{"slow", 48, 0.97},
		{"glacial", 168, 0.97},
		{"fast-but-blind", 7, 0.50},
	}

	rows := make([][]string, 0, len(sweeps))
	for _, sw := range sweeps {
		scen := simulate.Small(77)
		scen.Collection.DBL.LatencyMedianHours = sw.latencyHours
		scen.Collection.DBL.ListProbLoud = sw.loudProb
		ds, err := scen.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "blacklist-latency: %v\n", err)
			os.Exit(1)
		}
		// Tagged-domain coverage of the modified dbl.
		tagged := analysis.Coverage(ds, analysis.ClassTagged)
		union := analysis.Intersections(ds, analysis.ClassTagged).UnionSize
		var dblTotal int
		for _, r := range tagged {
			if r.Name == "dbl" {
				dblTotal = r.Total
			}
		}
		// First-appearance latency vs the faster feeds.
		timing := analysis.FirstAppearance(ds,
			[]string{"Hu", "dbl", "mx1", "mx2", "Ac1"})
		var median float64
		for _, r := range timing {
			if r.Name == "dbl" {
				median = r.Summary.Median
			}
		}
		rows = append(rows, []string{
			sw.name,
			fmt.Sprintf("%.0fh", sw.latencyHours),
			fmt.Sprintf("%.0f%%", sw.loudProb*100),
			fmt.Sprintf("%.0f%%", 100*float64(dblTotal)/float64(union)),
			fmt.Sprintf("%.1fh", median),
		})
	}
	fmt.Println("How listing latency and listing probability shape a blacklist:")
	fmt.Println(report.Table(
		[]string{"Variant", "Latency", "ListProb", "TaggedCov", "MedianOnset"}, rows))
	fmt.Println("Coverage barely moves with latency; onset does. A blacklist that")
	fmt.Println("lists a day late covers the same spam but after the campaign peak.")
}
