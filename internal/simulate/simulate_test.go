package simulate

import (
	"reflect"
	"sync"
	"testing"

	"tasterschoice/internal/analysis"
)

// Multi-seed robustness: the paper's headline shapes must hold for any
// seed, not just the tuned demo seed. Three reduced-scale runs are
// built once and every shape assertion checks all of them.

var (
	seedsOnce sync.Once
	seedRuns  map[uint64]*analysis.Dataset
)

func seedDatasets(t *testing.T) map[uint64]*analysis.Dataset {
	t.Helper()
	seedsOnce.Do(func() {
		seedRuns = make(map[uint64]*analysis.Dataset)
		for _, seed := range []uint64{3, 1001, 987654} {
			ds, err := Small(seed).Run()
			if err != nil {
				panic(err)
			}
			seedRuns[seed] = ds
		}
	})
	return seedRuns
}

func forEachSeed(t *testing.T, check func(t *testing.T, seed uint64, ds *analysis.Dataset)) {
	t.Helper()
	for seed, ds := range seedDatasets(t) {
		check(t, seed, ds)
	}
}

func TestRunProducesConsistentDataset(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		if len(ds.Result.Order) != 10 {
			t.Fatalf("seed %d: %d feeds", seed, len(ds.Result.Order))
		}
		if ds.Labels.Len() == 0 {
			t.Fatalf("seed %d: no labels", seed)
		}
		for _, name := range ds.Result.Order {
			if ds.Feed(name).Unique() == 0 {
				t.Errorf("seed %d: feed %s empty", seed, name)
			}
		}
	})
}

func TestShapeHuBestTaggedCoverage(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		rows := analysis.Coverage(ds, analysis.ClassTagged)
		byName := map[string]analysis.CoverageRow{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		for _, other := range []string{"mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot", "Hyb"} {
			if byName["Hu"].Total <= byName[other].Total {
				t.Errorf("seed %d: Hu tagged %d <= %s %d",
					seed, byName["Hu"].Total, other, byName[other].Total)
			}
		}
	})
}

func TestShapePoisonedFeedsCollapse(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		byName := map[string]analysis.PurityRow{}
		for _, r := range analysis.Purity(ds) {
			byName[r.Name] = r
		}
		if byName["Bot"].DNS > 0.2 {
			t.Errorf("seed %d: Bot DNS %.2f", seed, byName["Bot"].DNS)
		}
		if byName["mx2"].DNS > 0.5 {
			t.Errorf("seed %d: mx2 DNS %.2f", seed, byName["mx2"].DNS)
		}
		for _, clean := range []string{"dbl", "uribl", "mx1", "Ac1"} {
			if byName[clean].DNS < 0.75 {
				t.Errorf("seed %d: %s DNS %.2f", seed, clean, byName[clean].DNS)
			}
		}
	})
}

func TestShapeBlacklistsPurest(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		byName := map[string]analysis.PurityRow{}
		for _, r := range analysis.Purity(ds) {
			byName[r.Name] = r
		}
		for _, bl := range []string{"dbl", "uribl"} {
			blBenign := byName[bl].Alexa + byName[bl].ODP
			for _, hp := range []string{"mx1", "mx3", "Ac1", "Ac2"} {
				if hpBenign := byName[hp].Alexa + byName[hp].ODP; blBenign >= hpBenign {
					t.Errorf("seed %d: %s benign %.3f >= %s %.3f",
						seed, bl, blBenign, hp, hpBenign)
				}
			}
		}
	})
}

func TestShapeHybMostlyExclusiveLive(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		for _, r := range analysis.Coverage(ds, analysis.ClassLive) {
			if r.Name != "Hyb" {
				continue
			}
			frac := float64(r.Exclusive) / float64(r.Total)
			if frac < 0.25 {
				t.Errorf("seed %d: Hyb exclusive live %.2f, want > 0.25", seed, frac)
			}
		}
	})
}

func TestShapeHuAndDblEarliest(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		rows := analysis.FirstAppearance(ds,
			[]string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
		byName := map[string]analysis.TimingRow{}
		for _, r := range rows {
			byName[r.Name] = r
		}
		if byName["Hu"].Summary.N < 10 {
			t.Logf("seed %d: only %d timing domains; skipping", seed, byName["Hu"].Summary.N)
			return
		}
		for _, fast := range []string{"Hu", "dbl"} {
			if byName[fast].Summary.Median >= byName["mx1"].Summary.Median {
				t.Errorf("seed %d: %s median %.1fh >= mx1 %.1fh", seed,
					fast, byName[fast].Summary.Median, byName["mx1"].Summary.Median)
			}
		}
	})
}

func TestShapeMailColumnOrdering(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed uint64, ds *analysis.Dataset) {
		vd := analysis.VariationDistances(ds)
		idx := map[string]int{}
		for i, n := range vd.Names {
			idx[n] = i
		}
		mail := idx[analysis.MailColumn]
		// Ac2, the poorly seeded feed, must sit farther from Mail than
		// the well-connected feeds do on average.
		ref := (vd.Value[idx["mx1"]][mail] + vd.Value[idx["mx2"]][mail] +
			vd.Value[idx["Ac1"]][mail]) / 3
		if ac2 := vd.Value[idx["Ac2"]][mail]; ac2 <= ref {
			t.Errorf("seed %d: Ac2-Mail %.2f <= mean(mx1,mx2,Ac1)-Mail %.2f",
				seed, ac2, ref)
		}
	})
}

func TestScenarioValidationPropagates(t *testing.T) {
	scen := Small(1)
	scen.Ecosystem.Scale = -1
	if _, err := scen.Run(); err == nil {
		t.Fatal("invalid ecosystem config accepted")
	}
	scen = Small(1)
	scen.Collection.ReportProb = 2
	if _, err := scen.Run(); err == nil {
		t.Fatal("invalid collection config accepted")
	}
}

func TestDefaultAndSmallDiffer(t *testing.T) {
	d := Default(1)
	s := Small(1)
	if s.Ecosystem.Scale >= d.Ecosystem.Scale {
		t.Fatal("Small should be smaller")
	}
	if s.Name == d.Name {
		t.Fatal("scenario names should differ")
	}
}

// TestPaperRatioScalesOnlyVolumes pins PaperRatio to Default with the
// four campaign volume medians ×PaperRatioVolume and nothing else.
func TestPaperRatioScalesOnlyVolumes(t *testing.T) {
	p, d := PaperRatio(7), Default(7)
	if p.Name == d.Name {
		t.Fatal("scenario names should differ")
	}
	if p.Ecosystem.LoudVolumeMedian != d.Ecosystem.LoudVolumeMedian*PaperRatioVolume ||
		p.Ecosystem.QuietVolumeMedian != d.Ecosystem.QuietVolumeMedian*PaperRatioVolume ||
		p.Ecosystem.TinyVolumeMedian != d.Ecosystem.TinyVolumeMedian*PaperRatioVolume ||
		p.Ecosystem.OtherVolumeMedian != d.Ecosystem.OtherVolumeMedian*PaperRatioVolume {
		t.Fatalf("volume medians not scaled by %d", PaperRatioVolume)
	}
	p.Ecosystem.LoudVolumeMedian = d.Ecosystem.LoudVolumeMedian
	p.Ecosystem.QuietVolumeMedian = d.Ecosystem.QuietVolumeMedian
	p.Ecosystem.TinyVolumeMedian = d.Ecosystem.TinyVolumeMedian
	p.Ecosystem.OtherVolumeMedian = d.Ecosystem.OtherVolumeMedian
	p.Name = d.Name
	if !reflect.DeepEqual(p, d) {
		t.Fatal("PaperRatio changes more than the campaign volume medians")
	}
}
