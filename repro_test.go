package tasterschoice

// repro_test is the repository's single gate: one reduced-scale run
// through the entire pipeline, asserting the paper's headline findings
// and that every public deliverable (report, CSVs, advisor, selection)
// actually produces output. The per-mechanism detail lives in each
// package's tests; this is the "does the repo reproduce the paper"
// check a release would be cut against.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/simulate"
)

func TestReproductionGate(t *testing.T) {
	ds, err := simulate.Small(2010).Run()
	if err != nil {
		t.Fatal(err)
	}
	study := core.NewStudy(ds)

	t.Run("headline: smallest feed, biggest coverage", func(t *testing.T) {
		var huSamples, mx2Samples int64
		for _, r := range study.Table1() {
			switch r.Name {
			case "Hu":
				huSamples = r.Samples
			case "mx2":
				mx2Samples = r.Samples
			}
		}
		if huSamples >= mx2Samples {
			t.Errorf("Hu samples %d not below mx2 %d", huSamples, mx2Samples)
		}
		tagged := analysis.Coverage(ds, analysis.ClassTagged)
		best := ""
		bestN := -1
		for _, r := range tagged {
			if r.Total > bestN {
				best, bestN = r.Name, r.Total
			}
		}
		if best != "Hu" {
			t.Errorf("best tagged coverage = %s, want Hu", best)
		}
	})

	t.Run("headline: poisoning collapses Bot and mx2", func(t *testing.T) {
		for _, r := range study.Table2() {
			switch r.Name {
			case "Bot":
				if r.DNS > 0.2 {
					t.Errorf("Bot DNS %.2f", r.DNS)
				}
			case "mx2":
				if r.DNS > 0.5 {
					t.Errorf("mx2 DNS %.2f", r.DNS)
				}
			}
		}
	})

	t.Run("headline: early warning order", func(t *testing.T) {
		rows := analysis.FirstAppearance(ds,
			[]string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
		med := map[string]float64{}
		for _, r := range rows {
			if r.Summary.N > 0 {
				med[r.Name] = r.Summary.Median
			}
		}
		if med["Hu"] >= med["mx1"] || med["dbl"] >= med["mx1"] {
			t.Errorf("onset medians: Hu %.1fh dbl %.1fh mx1 %.1fh",
				med["Hu"], med["dbl"], med["mx1"])
		}
	})

	t.Run("full report renders", func(t *testing.T) {
		var buf bytes.Buffer
		if err := study.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"Table 1", "Figure 12", "Greedy feed acquisition"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("report missing %q", want)
			}
		}
	})

	t.Run("csv outputs", func(t *testing.T) {
		dir := t.TempDir()
		if err := study.WriteCSVDir(dir); err != nil {
			t.Fatal(err)
		}
		matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
		if err != nil || len(matches) < 15 {
			t.Fatalf("csv files: %d err=%v", len(matches), err)
		}
		for _, m := range matches {
			if st, err := os.Stat(m); err != nil || st.Size() == 0 {
				t.Errorf("%s empty or unreadable", m)
			}
		}
	})

	t.Run("output fingerprint", func(t *testing.T) {
		// SHA-256 of the full report and of every CSV for this seed.
		// Any change to a figure's bytes — a reordered float sum, a
		// different tie-break — moves a hash; an intended output change
		// must re-pin them here.
		want := map[string]string{
			"figure10_first_honeypot.csv":  "22b6d65f1a96287759b34c0c74dd4a5ae90688129e79526c4ad5cdc0374197c1",
			"figure11_last_appearance.csv": "91f055b90e0a1a538840f7b0255e189779d628edd4dcf07a6baa8a8702bdd178",
			"figure12_duration.csv":        "be27d29e7940995ac9680b9ab327c00f5370a046bbeb9545ee87be0aed6aa898",
			"figure2_live.csv":             "6828141c1d9808f1186f6e6ff2e68e7da5b23ff9e7b33b4ac2a8c9a518835d9a",
			"figure2_tagged.csv":           "1a1ce7a2c6acd3f92e7a60764cd2f2d142a7d4f6a383f9e63a6154d3c27af060",
			"figure3_volume.csv":           "f6e0f2adab77305165175db81542b76ca4ac152688629fda79ded7b070d3b229",
			"figure4_programs.csv":         "a484db18a00985c322db027c6645e73b00af1bf3cf9b7afe694698acb11ad465",
			"figure5_affiliates.csv":       "99c12724a551d22559aa3758dba9fc700c2953898459a3d9cdae86a55d8938b1",
			"figure6_revenue.csv":          "0f1e84d40a2f422c1c54b633475f6c735409adb1ca431cb04fa3dd9c9bd228c5",
			"figure7_variation.csv":        "b0e0f983adb0d07add574e60d332be4d36f1cbf79e3f1a0f122fd949129d4f92",
			"figure8_kendall.csv":          "69b189b915a5f7cece5597e23bd2153d1b99e982af734768390b7b0e07636fe7",
			"figure9_first_appearance.csv": "096ed1959ef2468e0fbac93c6f8762dbf562799c9984b8965c300450402e4adf",
			"report.txt":                   "31d7ae5d1a6e60a488c4d4cc5e4f75142e5459b013633f51d77acb6113fb37ae",
			"selection_tagged.csv":         "f4703c02b31721d956cb768f19eb82326cf0424e713494a43695fab7b26d4a31",
			"table1_feeds.csv":             "19a3e9f9fb6bbda643129ba42a16b62ee292ad1deff8c4050eac89e325932f1e",
			"table2_purity.csv":            "b16f97f41b13556a761e3b81410b12c301b038f5bfcfd8a89fa4d32c2187122d",
			"table3_coverage.csv":          "eb39f61882a38d886aad64de1b81f6579f438c583f103d3ea4fd77d68cf0a7a7",
		}
		got := map[string]string{}
		var buf bytes.Buffer
		if err := study.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got["report.txt"] = hex.EncodeToString(sum[:])
		dir := t.TempDir()
		if err := study.WriteCSVDir(dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[e.Name()] = hex.EncodeToString(sum[:])
		}
		names := make([]string, 0, len(got)+len(want))
		for name := range got {
			names = append(names, name)
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if got[name] != want[name] {
				t.Errorf("%s: sha256 %q, want %q", name, got[name], want[name])
			}
		}
	})

	t.Run("advisor answers every question", func(t *testing.T) {
		for _, q := range []core.Question{
			core.QCoverage, core.QPurity, core.QOnset,
			core.QCampaignEnd, core.QProportionality,
		} {
			if len(study.Recommend(q)) == 0 {
				t.Errorf("no ranking for %s", q)
			}
		}
	})
}
