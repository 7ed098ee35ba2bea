package webcrawl_test

import (
	"strconv"
	"strings"
	"testing"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/simulate"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
)

// maxFuzzSyms bounds how far the fuzz target's inputs may grow the
// world's symbol table before it is generated afresh.
const maxFuzzSyms = 1 << 20

var fuzzWorld *ecosystem.World

// smallWorld is a Small-scale world shared by the fuzz target's
// sequential runs. The target interns its inputs into the world's
// table, so a table grown past maxFuzzSyms is replaced by a freshly
// generated, identical world.
func smallWorld() *ecosystem.World {
	if fuzzWorld == nil || fuzzWorld.Syms.Len() > maxFuzzSyms {
		fuzzWorld = ecosystem.MustGenerate(simulate.Small(21).Ecosystem)
	}
	return fuzzWorld
}

// fuzzSeeds returns a URL of every shape the crawler distinguishes.
func fuzzSeeds(w *ecosystem.World) []string {
	var out []string
	var storefront, landing, webonly bool
	tagged := -1
	for ci := range w.Campaigns {
		c := &w.Campaigns[ci]
		for _, slot := range c.Domains {
			switch {
			case slot.Redirector:
				out = append(out, ecosystem.AdURL(c, slot))
			case slot.Landing && !landing:
				landing = true
				out = append(out, ecosystem.AdURL(c, slot))
			case c.Class == ecosystem.ClassWebOnly && !webonly:
				webonly = true
				out = append(out, ecosystem.AdURL(c, slot))
			case c.Program >= 0 && !storefront:
				storefront, tagged = true, c.ID
				out = append(out, ecosystem.AdURL(c, slot),
					"http://www."+string(slot.Name)+"/p/c1",
					"http://user@"+string(slot.Name)+"/",
					"http://"+string(slot.Name)+".")
			}
		}
	}
	// Redirector URLs: a valid token, a non-redirect token, tokens
	// naming no campaign, a port, and upper case.
	r := string(w.Redirectors()[0])
	out = append(out,
		"http://"+r+"/r/c"+strconv.Itoa(tagged),
		"http://"+r+"/p/c"+strconv.Itoa(tagged),
		"http://"+r+"/r/c99999999",
		"http://"+r+"/r/c-1",
		"http://"+r+":8080/r/c"+strconv.Itoa(tagged),
		"HTTP://"+strings.ToUpper(r)+"/r/c"+strconv.Itoa(tagged),
		ecosystem.ChaffURL(w.Redirectors()[0]))
	out = append(out,
		ecosystem.ChaffURL(w.Benign[0].Name), // chaff
		ecosystem.ChaffURL(w.Obscure[0]),     // obscure collision
		"http://qzx81kfjw2.com/",             // poison
		"http://mailboxjunk.info/p/c3",       // unknown with a token
		"", "http://", "://", "not a url", "http://a..b/", "http://1.2.3.4/",
		"http://com/", "http://co.uk/r/c2", "mailto:x@y.com")
	return out
}

// FuzzVisitSymMatchesVisit is the differential check of the symbol
// crawl: for any URL string, VisitSym on its symbol and its registered
// domain's symbol returns exactly what Visit returns on the string,
// and so does the bare-root visit (URL 0) of that domain.
func FuzzVisitSymMatchesVisit(f *testing.F) {
	for _, s := range fuzzSeeds(smallWorld()) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		w := smallWorld()
		tab := w.Syms
		// d is the registered domain a feed would file the URL under;
		// 0, the empty name, when the URL has no parseable host.
		var d symtab.ID
		if name, err := domain.DefaultRules.FromURL(raw); err == nil {
			d = tab.Intern(string(name))
		}
		check := func(u symtab.ID, rawURL string) {
			t.Helper()
			strC, symC := webcrawl.New(w), webcrawl.New(w)
			want := strC.Visit(rawURL)
			got := symC.VisitSym(d, u)
			if got != want {
				t.Fatalf("VisitSym(%q, %d) = %+v\n Visit(%q) = %+v", tab.Lookup(d), u, got, rawURL, want)
			}
			if symC.Visits != strC.Visits {
				t.Fatalf("%q: VisitSym counted %d visits, Visit %d", rawURL, symC.Visits, strC.Visits)
			}
		}
		if u := tab.Intern(raw); u != 0 {
			check(u, raw)
		}
		check(0, "http://"+tab.Lookup(d)+"/")
	})
}
