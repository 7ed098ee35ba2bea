package analysis

import (
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/stats"
)

// PurityRow is one row of Table 2: positive indicators (DNS, HTTP,
// Tagged) and negative indicators (ODP, Alexa), each as a fraction of
// the feed's distinct domains.
type PurityRow struct {
	Name string
	// DNS is the fraction of the feed's zone-covered domains that
	// appeared in a zone file; Covered is that denominator's share of
	// the feed (the paper notes the covered TLDs span 63–100% of each
	// feed).
	DNS     float64
	Covered float64
	// HTTP is the fraction of domains with a successful web visit.
	HTTP float64
	// Tagged is the fraction matching a storefront signature.
	Tagged float64
	// ODP and Alexa are the benign-list contamination fractions.
	ODP   float64
	Alexa float64
}

// Purity computes Table 2, one feed row per worker. The per-feed
// indicator sums walk the feed's id bitset over the label rows instead
// of hashing domain strings; PuritySerial is the pinned reference.
func Purity(ds *Dataset) []PurityRow {
	order := ds.Result.Order
	ix := ds.Index()
	out := make([]PurityRow, len(order))
	parallel.ForEach(0, len(order), func(i int) {
		name := order[i]
		var covered, dns, http, tagged, odp, alexa, total int
		ix.feedBits[name].Each(func(id int) {
			l := ix.label(id)
			total++
			if l.InZoneTLD {
				covered++
				if l.DNS {
					dns++
				}
			}
			if l.HTTP {
				http++
			}
			if l.Tagged {
				tagged++
			}
			if l.ODP {
				odp++
			}
			if l.Alexa {
				alexa++
			}
		})
		out[i] = PurityRow{
			Name:    name,
			DNS:     stats.Fraction(dns, covered),
			Covered: stats.Fraction(covered, total),
			HTTP:    stats.Fraction(http, total),
			Tagged:  stats.Fraction(tagged, total),
			ODP:     stats.Fraction(odp, total),
			Alexa:   stats.Fraction(alexa, total),
		}
	})
	return out
}

// purityRow computes one feed's Table 2 row the original way — a
// sorted walk with per-domain label lookups — for the serial
// reference.
func purityRow(ds *Dataset, name string) PurityRow {
	f := ds.Feed(name)
	var covered, dns, http, tagged, odp, alexa, total int
	f.Each(func(d domain.Name, _ feeds.DomainStat) {
		l := ds.Labels.Get(d)
		if l == nil {
			return
		}
		total++
		if l.InZoneTLD {
			covered++
			if l.DNS {
				dns++
			}
		}
		if l.HTTP {
			http++
		}
		if l.Tagged {
			tagged++
		}
		if l.ODP {
			odp++
		}
		if l.Alexa {
			alexa++
		}
	})
	return PurityRow{
		Name:    name,
		DNS:     stats.Fraction(dns, covered),
		Covered: stats.Fraction(covered, total),
		HTTP:    stats.Fraction(http, total),
		Tagged:  stats.Fraction(tagged, total),
		ODP:     stats.Fraction(odp, total),
		Alexa:   stats.Fraction(alexa, total),
	}
}
