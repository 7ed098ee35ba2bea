package analysis

import (
	"tasterschoice/internal/bitset"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

// CategoryRow is one feed's tagged-domain composition across the three
// tagged goods categories (pharmaceuticals, replicas, software) — the
// classes the paper's §3.4 storefront tagging covers. An extension
// view: the paper discusses the categories but does not tabulate the
// per-feed split.
type CategoryRow struct {
	Name     string
	Pharma   int
	Replica  int
	Software int
}

// Total returns the row's tagged-domain count.
func (r CategoryRow) Total() int { return r.Pharma + r.Replica + r.Software }

// CategoryBreakdown counts each feed's tagged domains per goods
// category.
func CategoryBreakdown(ds *Dataset) []CategoryRow {
	ix := ds.Index()
	out := make([]CategoryRow, 0, len(ds.Result.Order))
	for _, name := range ds.Result.Order {
		row := CategoryRow{Name: name}
		ix.classFeed(ClassTagged, name).Each(func(id int) {
			switch ix.label(id).Category {
			case ecosystem.CategoryPharma:
				row.Pharma++
			case ecosystem.CategoryReplica:
				row.Replica++
			case ecosystem.CategorySoftware:
				row.Software++
			}
		})
		out = append(out, row)
	}
	return out
}

// ShareRow is one feed's implied market-share estimate: the fraction of
// its observed volume attributable to each goods category. The paper's
// §5 warns that extrapolating "X% of all spam advertises Y" from a
// single feed is risky precisely because these shares vary so much by
// collection methodology; this view quantifies the spread.
type ShareRow struct {
	Name string
	// PharmaShare/ReplicaShare/SoftwareShare are volume fractions of
	// the feed's tagged volume.
	PharmaShare   float64
	ReplicaShare  float64
	SoftwareShare float64
}

// CategoryShares computes per-feed category volume shares for the
// volume feeds, plus the oracle's ground truth as the "Mail" row.
func CategoryShares(ds *Dataset) []ShareRow {
	ix := ds.Index()
	rowFrom := func(name string, ids *bitset.Set, volume func(symtab.ID) int64) ShareRow {
		var pharma, replica, software, total int64
		ids.Each(func(id int) {
			c := volume(ix.sym(id))
			total += c
			switch ix.label(id).Category {
			case ecosystem.CategoryPharma:
				pharma += c
			case ecosystem.CategoryReplica:
				replica += c
			case ecosystem.CategorySoftware:
				software += c
			}
		})
		row := ShareRow{Name: name}
		if total > 0 {
			row.PharmaShare = float64(pharma) / float64(total)
			row.ReplicaShare = float64(replica) / float64(total)
			row.SoftwareShare = float64(software) / float64(total)
		}
		return row
	}

	// Ground truth first: oracle volumes over the tagged union.
	rows := []ShareRow{rowFrom(MailColumn, ix.class(ClassTagged).bits, ds.Result.Oracle.VolumeID)}
	for _, name := range VolumeFeeds(ds) {
		rows = append(rows, rowFrom(name, ix.classFeed(ClassTagged, name), feedCount(ds.Feed(name))))
	}
	return rows
}
