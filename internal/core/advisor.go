package core

import (
	"fmt"
	"sort"

	"tasterschoice/internal/analysis"
)

// Question is a measurement question a researcher wants a feed for —
// the axes of the paper's §5 guidance.
type Question uint8

const (
	// QCoverage: which feed captures the most spam domains?
	QCoverage Question = iota
	// QPurity: which feed has the fewest benign/junk domains?
	QPurity
	// QOnset: which feed lists domains soonest after campaign start?
	QOnset
	// QCampaignEnd: which feed's last appearance tracks campaign end?
	QCampaignEnd
	// QProportionality: which feed's volumes track real mail?
	QProportionality
)

// String names the question.
func (q Question) String() string {
	switch q {
	case QCoverage:
		return "coverage"
	case QPurity:
		return "purity"
	case QOnset:
		return "onset timing"
	case QCampaignEnd:
		return "campaign-end timing"
	case QProportionality:
		return "proportionality"
	default:
		return "unknown"
	}
}

// Ranked is one feed's standing for a question; lower Rank is better.
type Ranked struct {
	Feed  string
	Rank  int
	Score float64
	// Note explains the score's meaning.
	Note string
}

// Recommend ranks the feeds for a question using the study's own
// measurements — the paper's §5 recommendations, derived from data
// rather than asserted.
func (s *Study) Recommend(q Question) []Ranked {
	var ranked []Ranked
	switch q {
	case QCoverage:
		tagged := analysis.Coverage(s.DS, analysis.ClassTagged)
		union := analysis.Intersections(s.DS, analysis.ClassTagged).UnionSize
		for _, r := range tagged {
			frac := 0.0
			if union > 0 {
				frac = float64(r.Total) / float64(union)
			}
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: frac,
				Note: fmt.Sprintf("covers %.0f%% of tagged domains", frac*100),
			})
		}
		sortDesc(ranked)
	case QPurity:
		for _, r := range s.Table2() {
			// Positive indicators up, benign contamination down.
			score := (r.DNS+r.HTTP)/2 - 5*(r.Alexa+r.ODP)
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: score,
				Note: fmt.Sprintf("DNS %.0f%%, HTTP %.0f%%, benign %.1f%%",
					r.DNS*100, r.HTTP*100, (r.Alexa+r.ODP)*100),
			})
		}
		sortDesc(ranked)
	case QOnset:
		// Rank over a feed subset with large common support; the full
		// nine-feed intersection can be tiny in reduced scenarios.
		rows := analysis.FirstAppearance(s.DS,
			[]string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
		for _, r := range rows {
			if r.Summary.N == 0 {
				continue
			}
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: r.Summary.Median,
				Note: fmt.Sprintf("median first appearance %.1fh after campaign start", r.Summary.Median),
			})
		}
		sortAsc(ranked)
	case QCampaignEnd:
		for _, r := range s.Figure11() {
			if r.Summary.N == 0 {
				continue
			}
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: r.Summary.Median,
				Note: fmt.Sprintf("median last-appearance gap %.1fh before campaign end", r.Summary.Median),
			})
		}
		sortAsc(ranked)
	case QProportionality:
		vd := s.Figure7()
		for i, name := range vd.Names {
			if name == analysis.MailColumn {
				continue
			}
			ranked = append(ranked, Ranked{
				Feed: name, Score: vd.Value[i][0],
				Note: fmt.Sprintf("variation distance to real mail %.2f", vd.Value[i][0]),
			})
		}
		sortAsc(ranked)
	}
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return ranked
}

func sortDesc(r []Ranked) {
	sort.SliceStable(r, func(i, j int) bool { return r[i].Score > r[j].Score })
}

func sortAsc(r []Ranked) {
	sort.SliceStable(r, func(i, j int) bool { return r[i].Score < r[j].Score })
}
