// Package simulate wires the full reproduction pipeline together:
// ecosystem generation → feed collection → crawl labeling, producing
// the analysis.Dataset everything downstream consumes.
//
// Collection runs on all CPUs by default (Collection.Workers: 0 means
// GOMAXPROCS) but the result is byte-identical for every worker
// count — a Scenario is fully determined by its seeds.
package simulate

import (
	"fmt"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/obs"
)

// Scenario is a complete, reproducible experiment configuration.
type Scenario struct {
	Name string
	// Ecosystem generates the world; Collection observes it.
	Ecosystem  ecosystem.Config
	Collection mailflow.Config
	// Metrics, when populated, observes the collection engine. The
	// zero value is inert and instrumentation never changes results.
	Metrics mailflow.Metrics
	// Tracer, when set, records a span per engine phase.
	Tracer *obs.Tracer
}

// Default returns the paper-scale default scenario (~1:1000 in message
// volume): the one cmd/tasters and the benchmarks run.
func Default(seed uint64) Scenario {
	return Scenario{
		Name:       "default",
		Ecosystem:  ecosystem.DefaultConfig(seed),
		Collection: mailflow.DefaultConfig(seed ^ 0x5eed),
	}
}

// Small returns a reduced scenario (~15% of default) for tests and
// quick iteration; junk-injection rates are scaled to match so purity
// proportions stay comparable.
func Small(seed uint64) Scenario {
	s := Default(seed)
	s.Name = "small"
	s.Ecosystem.Scale = 0.15
	s.Ecosystem.RXAffiliates = 150
	s.Ecosystem.RXLoudAffiliates = 10
	s.Ecosystem.BenignDomains = 3000
	s.Ecosystem.AlexaTopN = 1200
	s.Ecosystem.ODPDomains = 600
	s.Ecosystem.ObscureRegistered = 400
	s.Ecosystem.WebOnlyDomains = 800
	s.Ecosystem.OtherGoodsCampaigns = 800
	// Keep two mega-campaigns (scaling would leave one): with a single
	// mega, a lucky inclusion draw lets a poorly seeded feed look
	// representative; two stabilize the proportionality shapes.
	s.Ecosystem.MegaCampaigns = 14 // scaled by 0.15 -> 2
	s.Ecosystem.MegaVolumeMultiplier = 250
	s.Collection.PoisonBotArrivals = 15000
	s.Collection.PoisonMX2Arrivals = 14000
	s.Collection.HuJunkReports = 250
	s.Collection.HoneypotJunkPerDay = 0.25
	s.Collection.DBL.JunkBenign = 8
	s.Collection.URIBL.JunkBenign = 4
	return s
}

// PaperRatioVolume is the factor PaperRatio applies to every campaign
// volume median.
const PaperRatioVolume = 20

// PaperRatio returns Default with every campaign volume median ×20:
// domain counts stay as in Default, so messages per domain rise 20×,
// toward the paper's message:domain ratio (>1B messages over three
// months). It is the scenario behind perfbench's sweep_paper_ratio and
// cmd/bench's repro_e2e_paper_ratio.
func PaperRatio(seed uint64) Scenario {
	s := Default(seed).WithVolumes(PaperRatioVolume)
	s.Name = "paper-ratio"
	return s
}

// WithVolumes returns s with every campaign volume median (loud,
// quiet, tiny and other-goods) multiplied by k.
func (s Scenario) WithVolumes(k float64) Scenario {
	e := &s.Ecosystem
	e.LoudVolumeMedian *= k
	e.QuietVolumeMedian *= k
	e.TinyVolumeMedian *= k
	e.OtherVolumeMedian *= k
	return s
}

// Run executes the scenario end to end.
func (s Scenario) Run() (*analysis.Dataset, error) {
	world, err := ecosystem.Generate(s.Ecosystem)
	if err != nil {
		return nil, fmt.Errorf("simulate %q: %w", s.Name, err)
	}
	eng := mailflow.New(world, s.Collection)
	eng.Metrics = s.Metrics
	eng.Tracer = s.Tracer
	res, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("simulate %q: %w", s.Name, err)
	}
	return analysis.NewDataset(world, res), nil
}

// MustRun is Run that panics on error, for benchmarks and tools with
// static configs.
func (s Scenario) MustRun() *analysis.Dataset {
	ds, err := s.Run()
	if err != nil {
		panic(err)
	}
	return ds
}
