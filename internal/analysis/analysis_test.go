package analysis

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
)

var (
	dsOnce sync.Once
	dsVal  *Dataset
)

// testDataset builds one reduced-scale dataset shared by all tests in
// the package (building it is the expensive part).
func testDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cfg := ecosystem.DefaultConfig(42)
		cfg.Scale = 0.15
		cfg.RXAffiliates = 150
		cfg.RXLoudAffiliates = 10
		cfg.BenignDomains = 3000
		cfg.AlexaTopN = 1200
		cfg.ODPDomains = 600
		cfg.ObscureRegistered = 400
		cfg.WebOnlyDomains = 800
		cfg.OtherGoodsCampaigns = 800
		world := ecosystem.MustGenerate(cfg)
		mcfg := mailflow.DefaultConfig(43)
		mcfg.PoisonBotArrivals = 15000
		mcfg.PoisonMX2Arrivals = 14000
		mcfg.HuJunkReports = 250
		mcfg.HoneypotJunkPerDay = 0.25
		mcfg.DBL.JunkBenign = 8
		mcfg.URIBL.JunkBenign = 4
		res, err := mailflow.New(world, mcfg).Run()
		if err != nil {
			panic(err)
		}
		dsVal = NewDataset(world, res)
	})
	return dsVal
}

func TestLabelsCoverUnion(t *testing.T) {
	ds := testDataset(t)
	ls := ds.Labels
	union := map[domain.Name]bool{}
	for _, name := range ds.Result.Order {
		for _, d := range ds.Feed(name).Domains() {
			if ls.Get(d) == nil {
				t.Fatalf("feed %s domain %s unlabeled", name, d)
			}
			union[d] = true
		}
	}
	if len(union) != ls.Len() || len(ls.Domains) != ls.Len() {
		t.Fatalf("union %d vs labels %d, domains %d", len(union), ls.Len(), len(ls.Domains))
	}
	// Ids are name ranks, and the symbol mapping round-trips.
	for id, d := range ls.Domains {
		if id > 0 && ls.Domains[id-1] >= d {
			t.Fatalf("ids not in name order at %d: %s >= %s", id, ls.Domains[id-1], d)
		}
		if got, ok := ls.id(ls.syms[id]); !ok || int(got) != id {
			t.Fatalf("%s: symbol maps back to id %d (ok=%v), want %d", d, got, ok, id)
		}
		if ls.Get(d) != &ls.rows[id] {
			t.Fatalf("Get(%s) is not row %d", d, id)
		}
	}
	if ls.Get("no-such-domain.invalid") != nil {
		t.Fatal("Get of a domain in no feed returned a label")
	}
}

func TestLabelConsistency(t *testing.T) {
	ds := testDataset(t)
	var taggedCount, liveCount, httpCount int
	for _, d := range ds.Labels.Domains {
		l := ds.Labels.Get(d)
		if l.Tagged && !l.HTTP {
			t.Fatalf("%s tagged but not HTTP-live", d)
		}
		if l.DNS && !l.InZoneTLD {
			t.Fatalf("%s has DNS hit outside covered TLDs", d)
		}
		if l.Tagged && l.Program < 0 {
			t.Fatalf("%s tagged without program", d)
		}
		if l.Tagged {
			taggedCount++
		}
		if l.Live() {
			liveCount++
		}
		if l.HTTP {
			httpCount++
		}
	}
	if taggedCount == 0 || liveCount == 0 {
		t.Fatalf("tagged=%d live=%d", taggedCount, liveCount)
	}
	if liveCount > httpCount {
		t.Fatal("live exceeds HTTP")
	}
}

func TestTable1(t *testing.T) {
	ds := testDataset(t)
	rows := Table1(ds)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Unique == 0 {
			t.Errorf("feed %s empty", r.Name)
		}
		if (r.Name == "dbl" || r.Name == "uribl") != r.SamplesNA {
			t.Errorf("feed %s SamplesNA=%v", r.Name, r.SamplesNA)
		}
	}
}

func TestPurityBounds(t *testing.T) {
	ds := testDataset(t)
	for _, r := range Purity(ds) {
		for name, v := range map[string]float64{
			"DNS": r.DNS, "Covered": r.Covered, "HTTP": r.HTTP,
			"Tagged": r.Tagged, "ODP": r.ODP, "Alexa": r.Alexa,
		} {
			if v < 0 || v > 1 {
				t.Errorf("feed %s %s = %g out of [0,1]", r.Name, name, v)
			}
		}
		if r.Tagged > r.HTTP+1e-9 {
			t.Errorf("feed %s tagged %g > HTTP %g", r.Name, r.Tagged, r.HTTP)
		}
	}
}

func TestPurityShape(t *testing.T) {
	ds := testDataset(t)
	rows := Purity(ds)
	byName := map[string]PurityRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Poisoned feeds collapse on the DNS indicator.
	if byName["Bot"].DNS > 0.15 {
		t.Errorf("Bot DNS %g, want collapse", byName["Bot"].DNS)
	}
	if byName["mx2"].DNS > 0.4 {
		t.Errorf("mx2 DNS %g, want depressed", byName["mx2"].DNS)
	}
	// Clean feeds stay high.
	for _, name := range []string{"mx1", "mx3", "Ac1", "Ac2", "dbl", "uribl"} {
		if byName[name].DNS < 0.8 {
			t.Errorf("%s DNS %g, want >= 0.8", name, byName[name].DNS)
		}
	}
	// Blacklists have the least benign contamination.
	for _, bl := range []string{"dbl", "uribl"} {
		if s := byName[bl].ODP + byName[bl].Alexa; s > 0.06 {
			t.Errorf("%s benign contamination %g", bl, s)
		}
	}
}

func TestCoverageInvariants(t *testing.T) {
	ds := testDataset(t)
	for _, class := range []DomainClass{ClassAll, ClassLive, ClassTagged} {
		rows := Coverage(ds, class)
		for _, r := range rows {
			if r.Exclusive > r.Total {
				t.Errorf("%v %s exclusive %d > total %d", class, r.Name, r.Exclusive, r.Total)
			}
		}
	}
	// Tagged ⊆ live ⊆ all per feed.
	all := Coverage(ds, ClassAll)
	live := Coverage(ds, ClassLive)
	tagged := Coverage(ds, ClassTagged)
	for i := range all {
		if live[i].Total > all[i].Total || tagged[i].Total > live[i].Total {
			t.Errorf("feed %s class ordering violated: all=%d live=%d tagged=%d",
				all[i].Name, all[i].Total, live[i].Total, tagged[i].Total)
		}
	}
}

func TestCoverageShape(t *testing.T) {
	ds := testDataset(t)
	tagged := Coverage(ds, ClassTagged)
	byName := map[string]CoverageRow{}
	for _, r := range tagged {
		byName[r.Name] = r
	}
	// Hu provides the most tagged domains despite lowest volume.
	for _, name := range []string{"mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot", "Hyb"} {
		if byName["Hu"].Total <= byName[name].Total {
			t.Errorf("Hu tagged %d <= %s %d", byName["Hu"].Total, name, byName[name].Total)
		}
	}
	// Bot contributes essentially no exclusive tagged domains.
	if byName["Bot"].Exclusive > byName["Bot"].Total/10+2 {
		t.Errorf("Bot exclusive tagged %d of %d", byName["Bot"].Exclusive, byName["Bot"].Total)
	}
}

func TestMatrixProperties(t *testing.T) {
	ds := testDataset(t)
	m := Intersections(ds, ClassTagged)
	n := len(m.Names)
	if n != 10 {
		t.Fatalf("names = %v", m.Names)
	}
	for i := 0; i < n; i++ {
		// Diagonal: |A ∩ A| = |A|.
		if m.Count[i][i] != m.SetSizes[i] {
			t.Errorf("diagonal %d: %d != %d", i, m.Count[i][i], m.SetSizes[i])
		}
		if m.SetSizes[i] > 0 && math.Abs(m.Frac[i][i]-1) > 1e-9 {
			t.Errorf("diagonal frac %d = %g", i, m.Frac[i][i])
		}
		for j := 0; j < n; j++ {
			// Symmetry of counts.
			if m.Count[i][j] != m.Count[j][i] {
				t.Errorf("count asymmetry at %d,%d", i, j)
			}
			if m.Count[i][j] > m.SetSizes[i] || m.Count[i][j] > m.SetSizes[j] {
				t.Errorf("intersection exceeds set size at %d,%d", i, j)
			}
			if m.Frac[i][j] < 0 || m.Frac[i][j] > 1+1e-9 {
				t.Errorf("frac out of range at %d,%d: %g", i, j, m.Frac[i][j])
			}
		}
		// All column.
		if m.Count[i][n] != m.SetSizes[i] {
			t.Errorf("All column count %d != set size", i)
		}
		if m.SetSizes[i] > m.UnionSize {
			t.Errorf("set %d larger than union", i)
		}
	}
}

func TestVolumeCoverage(t *testing.T) {
	ds := testDataset(t)
	rows := VolumeCoverage(ds)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"LivePct": r.LivePct, "LiveBenignPct": r.LiveBenignPct,
			"TaggedPct": r.TaggedPct, "TaggedBenignPct": r.TaggedBenignPct,
		} {
			if v < 0 || v > 1.000001 {
				t.Errorf("feed %s %s = %g", r.Name, name, v)
			}
		}
	}
}

func TestProgramAndAffiliateCoverage(t *testing.T) {
	ds := testDataset(t)
	pm := ProgramCoverage(ds)
	am := AffiliateCoverage(ds)
	idx := map[string]int{}
	for i, n := range pm.Names {
		idx[n] = i
	}
	// Hu sees the most programs and affiliates.
	for _, other := range []string{"mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot"} {
		if pm.SetSizes[idx["Hu"]] < pm.SetSizes[idx[other]] {
			t.Errorf("Hu programs %d < %s %d", pm.SetSizes[idx["Hu"]], other, pm.SetSizes[idx[other]])
		}
		if am.SetSizes[idx["Hu"]] <= am.SetSizes[idx[other]] {
			t.Errorf("Hu affiliates %d <= %s %d", am.SetSizes[idx["Hu"]], other, am.SetSizes[idx[other]])
		}
	}
	// Bot sees the fewest programs.
	for _, other := range []string{"Hu", "dbl", "uribl", "mx1", "mx2", "mx3", "Ac1"} {
		if pm.SetSizes[idx["Bot"]] > pm.SetSizes[idx[other]] {
			t.Errorf("Bot programs %d > %s %d", pm.SetSizes[idx["Bot"]], other, pm.SetSizes[idx[other]])
		}
	}
}

func TestRevenueCoverage(t *testing.T) {
	ds := testDataset(t)
	rows, total := RevenueCoverage(ds)
	if total <= 0 {
		t.Fatal("no total revenue")
	}
	byName := map[string]RevenueRow{}
	for _, r := range rows {
		if r.Revenue < 0 || r.Revenue > total+1e-6 {
			t.Errorf("feed %s revenue %g outside [0, %g]", r.Name, r.Revenue, total)
		}
		byName[r.Name] = r
	}
	// Hu covers (nearly) all revenue; Bot an order of magnitude less.
	if byName["Hu"].Revenue < 0.85*total {
		t.Errorf("Hu revenue %g of %g", byName["Hu"].Revenue, total)
	}
	if byName["Bot"].Revenue > 0.5*byName["Hu"].Revenue {
		t.Errorf("Bot revenue %g vs Hu %g: bots should cover far less",
			byName["Bot"].Revenue, byName["Hu"].Revenue)
	}
}

func TestProportionalityMatrices(t *testing.T) {
	ds := testDataset(t)
	vd := VariationDistances(ds)
	kt := KendallTaus(ds)
	if vd.Names[0] != MailColumn || kt.Names[0] != MailColumn {
		t.Fatalf("Mail column missing: %v", vd.Names)
	}
	if len(vd.Names) != 7 { // Mail + mx1,mx2,mx3,Ac1,Ac2,Bot
		t.Fatalf("names = %v", vd.Names)
	}
	n := len(vd.Names)
	for i := 0; i < n; i++ {
		if vd.Value[i][i] > 1e-9 {
			t.Errorf("δ(%s,%s) = %g, want 0", vd.Names[i], vd.Names[i], vd.Value[i][i])
		}
		for j := 0; j < n; j++ {
			if v := vd.Value[i][j]; v < -1e-9 || v > 1+1e-9 {
				t.Errorf("δ out of range: %g", v)
			}
			if math.Abs(vd.Value[i][j]-vd.Value[j][i]) > 1e-9 {
				t.Errorf("δ asymmetric at %d,%d", i, j)
			}
			if kt.OK[i][j] {
				if v := kt.Value[i][j]; v < -1-1e-9 || v > 1+1e-9 {
					t.Errorf("τ out of range: %g", v)
				}
			}
		}
	}
}

func TestTimingRows(t *testing.T) {
	ds := testDataset(t)
	fig9 := FirstAppearance(ds, Fig9Feeds(ds))
	if len(fig9) != 9 {
		t.Fatalf("fig9 rows = %d", len(fig9))
	}
	for _, r := range fig9 {
		if r.Summary.N > 0 && r.Summary.Min < 0 {
			t.Errorf("feed %s negative first-appearance delta %g", r.Name, r.Summary.Min)
		}
	}
	fig10 := FirstAppearance(ds, HoneypotFeeds)
	for _, r := range fig10 {
		if r.Summary.N == 0 {
			t.Errorf("fig10 feed %s has no common domains", r.Name)
		}
	}
	fig11 := LastAppearance(ds, HoneypotFeeds)
	fig12 := Duration(ds, HoneypotFeeds)
	for _, rows := range [][]TimingRow{fig11, fig12} {
		for _, r := range rows {
			if r.Summary.N > 0 && r.Summary.Min < -1e-9 {
				t.Errorf("feed %s negative delta %g", r.Name, r.Summary.Min)
			}
		}
	}
}

func TestTimingShape(t *testing.T) {
	ds := testDataset(t)
	// At test scale the full nine-feed intersection is only a handful
	// of domains; use a smaller feed set for a statistically
	// meaningful comparison of the same effect.
	rows := FirstAppearance(ds, []string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
	byName := map[string]TimingRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Hu and dbl list domains earlier (smaller median delta) than the
	// honeypot feeds.
	for _, fast := range []string{"Hu", "dbl"} {
		for _, slow := range []string{"mx1", "Ac1"} {
			f, s := byName[fast].Summary, byName[slow].Summary
			if f.N == 0 || s.N == 0 {
				continue
			}
			if f.Median >= s.Median {
				t.Errorf("%s median %.1fh >= %s median %.1fh",
					fast, f.Median, slow, s.Median)
			}
		}
	}
}

var _ = domain.Name("")

const timeHour = time.Hour

func TestGreedySelection(t *testing.T) {
	ds := testDataset(t)
	steps := GreedySelection(ds, ClassTagged)
	if len(steps) != 10 {
		t.Fatalf("steps = %d", len(steps))
	}
	// First pick is the biggest contributor (Hu for tagged domains).
	if steps[0].Feed != "Hu" {
		t.Errorf("first pick %s, want Hu", steps[0].Feed)
	}
	// Marginal gains are non-increasing and cumulative is monotone,
	// ending at 100% of the union.
	seen := map[string]bool{}
	for i, s := range steps {
		if seen[s.Feed] {
			t.Fatalf("feed %s picked twice", s.Feed)
		}
		seen[s.Feed] = true
		if i > 0 {
			if s.Marginal > steps[i-1].Marginal {
				t.Errorf("marginal gain increased at step %d: %d > %d",
					i, s.Marginal, steps[i-1].Marginal)
			}
			if s.Cumulative < steps[i-1].Cumulative {
				t.Errorf("cumulative decreased at step %d", i)
			}
		}
	}
	last := steps[len(steps)-1]
	if last.CumulativeFrac < 0.999 {
		t.Errorf("final coverage %.3f, want 1.0", last.CumulativeFrac)
	}
	// Diversity beats redundancy: the three MX honeypots must not be
	// the second, third and fourth picks (their marginal value decays).
	mxEarly := 0
	for _, s := range steps[1:4] {
		if s.Feed == "mx1" || s.Feed == "mx2" || s.Feed == "mx3" {
			mxEarly++
		}
	}
	if mxEarly == 3 {
		t.Error("all three MX honeypots picked consecutively — no diversity effect")
	}
}

func TestGreedySelectionAllClasses(t *testing.T) {
	ds := testDataset(t)
	for _, class := range []DomainClass{ClassAll, ClassLive, ClassTagged} {
		steps := GreedySelection(ds, class)
		if len(steps) != 10 {
			t.Fatalf("class %v: %d steps", class, len(steps))
		}
	}
}

func TestTakedownPrecision(t *testing.T) {
	ds := testDataset(t)
	rows := TakedownPrecision(ds, 10)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want the six volume feeds", len(rows))
	}
	byName := map[string]TakedownRow{}
	for _, r := range rows {
		if r.Precision < 0 || r.Precision > 1 {
			t.Errorf("feed %s precision %g", r.Name, r.Precision)
		}
		if r.Hits > r.K {
			t.Errorf("feed %s hits %d > k %d", r.Name, r.Hits, r.K)
		}
		byName[r.Name] = r
	}
	// The evenly exposed mx2 should prioritize at least as well as the
	// poorly seeded Ac2.
	if byName["mx2"].Hits < byName["Ac2"].Hits {
		t.Errorf("mx2 hits %d < Ac2 hits %d", byName["mx2"].Hits, byName["Ac2"].Hits)
	}
}

func TestTopDomains(t *testing.T) {
	ds := testDataset(t)
	top := TopDomains(ds, "mx2", 5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("top = %v", top)
	}
	dist := feedTaggedDist(ds, "mx2")
	for i := 1; i < len(top); i++ {
		if dist[string(top[i-1])] < dist[string(top[i])] {
			t.Fatalf("top domains not descending at %d", i)
		}
	}
}

func TestCategoryBreakdown(t *testing.T) {
	ds := testDataset(t)
	rows := CategoryBreakdown(ds)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	tagged := Coverage(ds, ClassTagged)
	for i, r := range rows {
		if r.Total() != tagged[i].Total {
			t.Errorf("feed %s category total %d != tagged total %d",
				r.Name, r.Total(), tagged[i].Total)
		}
		// Pharma dominates spam-advertised goods in any broad feed
		// (narrow feeds like Bot inherit their few operators' mix).
		if r.Total() > 100 && r.Pharma <= r.Software {
			t.Errorf("feed %s: pharma %d <= software %d", r.Name, r.Pharma, r.Software)
		}
	}
}

func TestReconstructCampaigns(t *testing.T) {
	ds := testDataset(t)
	for _, name := range []string{"mx2", "Hu", "uribl"} {
		rec := ReconstructCampaigns(ds, name, 12*timeHour)
		if rec.Domains == 0 {
			t.Fatalf("%s: no domains clustered", name)
		}
		if rec.Clusters < 1 || rec.Clusters > rec.Domains {
			t.Errorf("%s: clusters %d of %d domains", name, rec.Clusters, rec.Domains)
		}
		for metric, v := range map[string]float64{
			"precision": rec.PairPrecision, "recall": rec.PairRecall,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s %s = %g", name, metric, v)
			}
		}
		if rec.TrueCampaigns > rec.Domains {
			t.Errorf("%s: true campaigns %d > domains %d", name, rec.TrueCampaigns, rec.Domains)
		}
	}
}

func TestReconstructAllDeterministic(t *testing.T) {
	ds := testDataset(t)
	a := ReconstructAll(ds, 12*timeHour)
	b := ReconstructAll(ds, 12*timeHour)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("rows: %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReconstructPerfectWithInfiniteSlackSingleProgram(t *testing.T) {
	// With huge slack, every program collapses into one cluster —
	// recall must be 1 (all true pairs reunited).
	ds := testDataset(t)
	rec := ReconstructCampaigns(ds, "mx2", 10000*timeHour)
	if rec.PairRecall < 0.999 {
		t.Fatalf("recall with infinite slack = %g", rec.PairRecall)
	}
}

func TestBuildLabelsWorkerCountInvariant(t *testing.T) {
	// The label set must be identical for any worker count.
	ds := testDataset(t)
	serial := BuildLabelsConcurrent(ds.World, ds.Result, 1)
	parallel := BuildLabelsConcurrent(ds.World, ds.Result, 8)
	if serial.Len() != parallel.Len() {
		t.Fatalf("label counts differ: %d vs %d", serial.Len(), parallel.Len())
	}
	// The id space itself must not depend on the worker count.
	if !slices.Equal(serial.Domains, parallel.Domains) {
		t.Fatal("domain id order differs across worker counts")
	}
	if !slices.Equal(serial.syms, parallel.syms) || !slices.Equal(serial.ids, parallel.ids) {
		t.Fatal("symbol↔id mapping differs across worker counts")
	}
	for id, d := range serial.Domains {
		if a, b := serial.rows[id], parallel.rows[id]; a != b {
			t.Fatalf("label for %s differs: %+v vs %+v", d, a, b)
		}
	}
}

func TestVolumeFeedsList(t *testing.T) {
	ds := testDataset(t)
	got := VolumeFeeds(ds)
	want := []string{"mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot"}
	if len(got) != len(want) {
		t.Fatalf("VolumeFeeds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VolumeFeeds = %v, want %v", got, want)
		}
	}
}

func TestFig9FeedsExcludesBot(t *testing.T) {
	ds := testDataset(t)
	for _, name := range Fig9Feeds(ds) {
		if name == "Bot" {
			t.Fatal("Fig9Feeds includes Bot")
		}
	}
	if len(Fig9Feeds(ds)) != 9 {
		t.Fatalf("Fig9Feeds = %v", Fig9Feeds(ds))
	}
}

func TestTimingEmptyFeedList(t *testing.T) {
	ds := testDataset(t)
	if rows := FirstAppearance(ds, nil); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	if rows := LastAppearance(ds, nil); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
	if rows := Duration(ds, nil); len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestTimingDurationNonNegativeInvariant(t *testing.T) {
	// Campaign duration spans every feed's lifetime by construction,
	// so duration differences must never be negative.
	ds := testDataset(t)
	for _, r := range Duration(ds, HoneypotFeeds) {
		if r.Summary.N > 0 && r.Summary.Min < -1e-9 {
			t.Fatalf("feed %s negative duration delta %g", r.Name, r.Summary.Min)
		}
	}
}

func TestCategoryShares(t *testing.T) {
	ds := testDataset(t)
	rows := CategoryShares(ds)
	if len(rows) != 7 || rows[0].Name != MailColumn {
		t.Fatalf("rows: %d, first %s", len(rows), rows[0].Name)
	}
	for _, r := range rows {
		sum := r.PharmaShare + r.ReplicaShare + r.SoftwareShare
		if sum < 0 || sum > 1.000001 {
			t.Errorf("feed %s shares sum %g", r.Name, sum)
		}
		if sum > 0.1 && (sum < 0.999) {
			t.Errorf("feed %s shares sum %g, want ~1 over tagged volume", r.Name, sum)
		}
	}
	// The spread across feeds is the point: at least two feeds must
	// disagree on pharma share by a nontrivial margin.
	var lo, hi float64 = 2, -1
	for _, r := range rows[1:] {
		if r.PharmaShare < lo {
			lo = r.PharmaShare
		}
		if r.PharmaShare > hi {
			hi = r.PharmaShare
		}
	}
	if hi-lo < 0.02 {
		t.Errorf("pharma share spread %.3f suspiciously tight", hi-lo)
	}
}

// TestNameKeyBucketsSortLikeStrings checks rank's ordering machinery
// on names built to stress it: empty and one-byte names, names that are
// prefixes of each other, NUL and high bytes, and long shared prefixes
// that tie on every key bit. Grouping by the key's top two bytes and
// sortBucket within each group must give plain string order.
func TestNameKeyBucketsSortLikeStrings(t *testing.T) {
	names := []string{"", "a", "a\x00", "a\x00\x00", "ab", "abcdefgh", "abcdefghi",
		"abcdefgh\x00", "abcdefgg", "\xff", "\xff\xff", "zz", "z", "b", "ba"}
	for i := range 300 {
		// 300 names in one bucket sharing 12 bytes, then a counter.
		names = append(names, "cheappills12"+string(rune('a'+i%26))+string(rune('a'+i/26))+".com")
	}
	order := make([]int32, len(names))
	keys := make([]uint64, len(names))
	for i, s := range names {
		order[i], keys[i] = int32(i), nameKey(s)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(keys[a]>>48, keys[b]>>48) })
	scratch := make([]uint64, len(names))
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && keys[order[hi]]>>48 == keys[order[lo]]>>48 {
			hi++
		}
		sortBucket(order[lo:hi], keys, names, scratch[lo:hi])
		lo = hi
	}
	got := make([]string, len(order))
	for r, i := range order {
		got[r] = names[i]
	}
	want := slices.Clone(names)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("bucketed order differs from string order:\n got %q\nwant %q", got, want)
	}
}
