package ecosystem

import (
	"fmt"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/symtab"
)

// Word lists used to synthesize plausible domain and program names.
// Purely cosmetic, but keeping generated names realistic exercises the
// same parsing paths real feed data would.
var (
	spamWordsA = []string{
		"cheap", "best", "super", "mega", "quick", "easy", "top", "fast",
		"prime", "gold", "vip", "pro", "ultra", "star", "great", "real",
		"true", "fresh", "smart", "happy", "lucky", "royal", "grand",
		"secure", "direct", "global", "instant", "magic", "power", "elite",
	}
	spamWordsB = []string{
		"pills", "meds", "pharm", "rx", "drugs", "tabs", "health", "cure",
		"watches", "replica", "bags", "luxury", "brands", "soft", "oem",
		"apps", "deals", "shop", "store", "market", "sale", "offers",
		"goods", "mall", "outlet", "boutique", "supply", "depot", "express",
	}
	benignWords = []string{
		"news", "blog", "mail", "search", "photo", "video", "music",
		"travel", "bank", "weather", "sports", "games", "forum", "wiki",
		"social", "cloud", "code", "docs", "maps", "books", "movies",
		"recipes", "garden", "auto", "craft", "school", "science", "art",
		"city", "home", "work", "life", "tech", "media", "press", "daily",
	}
	programAdjectives = []string{
		"Canadian", "Euro", "Global", "Royal", "Swiss", "Pacific", "Prime",
		"United", "Diamond", "Golden", "Silver", "Atlantic", "Eastern",
		"Northern", "Imperial", "Classic", "Modern", "Alpha", "Omega",
	}
	programNouns = map[Category][]string{
		CategoryPharma:   {"Pharmacy", "Health", "Meds", "RX Partners", "Drugstore", "Pills Network", "Care", "Remedy"},
		CategoryReplica:  {"Replica House", "Watch Works", "Luxury Line", "Timepieces", "Boutique Club", "Leather Co"},
		CategorySoftware: {"Soft Sales", "OEM Store", "License Depot", "Software Hub", "App Vault"},
	}
	spamTLDs        = []string{"com", "net", "org", "info", "biz", "ru", "cn", "in"}
	spamTLDWeights  = []float64{0.56, 0.10, 0.07, 0.08, 0.03, 0.09, 0.04, 0.03}
	benignTLDs      = []string{"com", "org", "net", "edu", "gov", "co.uk", "de", "fr"}
	benignTLDWeight = []float64{0.55, 0.15, 0.12, 0.05, 0.02, 0.05, 0.03, 0.03}
)

// nameGen produces unique domain names of various flavors, interning
// each into the world's symbol table as it is minted. The table is
// also the uniqueness check: a candidate is fresh exactly when
// interning it assigns a new symbol. Every other symbol in the table
// is a URL ("http://..."), which no generated name can equal.
type nameGen struct {
	rng       *randutil.RNG
	spamTLD   *randutil.WeightedChoice
	benignTLD *randutil.WeightedChoice
	tab       *symtab.Table
}

func newNameGen(rng *randutil.RNG, tab *symtab.Table) *nameGen {
	return &nameGen{
		rng:       rng,
		spamTLD:   randutil.NewWeightedChoice(rng.SplitNamed("spamtld"), spamTLDWeights),
		benignTLD: randutil.NewWeightedChoice(rng.SplitNamed("benigntld"), benignTLDWeight),
		tab:       tab,
	}
}

// unique retries gen until it produces a name the table has not seen,
// and returns it with its new symbol.
func (g *nameGen) unique(gen func() domain.Name) (domain.Name, symtab.ID) {
	for i := 0; ; i++ {
		d := gen()
		n := g.tab.Len()
		if id := g.tab.Intern(string(d)); int(id) == n {
			return d, id
		}
		if i > 10000 {
			panic("ecosystem: name space exhausted")
		}
	}
}

// Spam returns a fresh spammy-looking registered domain:
// word+word+optional digits over a spam-weighted TLD mix.
func (g *nameGen) Spam() (domain.Name, symtab.ID) {
	return g.unique(func() domain.Name {
		a := spamWordsA[g.rng.Intn(len(spamWordsA))]
		b := spamWordsB[g.rng.Intn(len(spamWordsB))]
		suffix := ""
		if g.rng.Bool(0.65) {
			suffix = fmt.Sprintf("%d", g.rng.Intn(1000))
		}
		tld := spamTLDs[g.spamTLD.Pick()]
		return domain.Name(a + b + suffix + "." + tld)
	})
}

// Benign returns a fresh legitimate-looking domain.
func (g *nameGen) Benign() (domain.Name, symtab.ID) {
	return g.unique(func() domain.Name {
		a := benignWords[g.rng.Intn(len(benignWords))]
		b := benignWords[g.rng.Intn(len(benignWords))]
		name := a + b
		if g.rng.Bool(0.3) {
			name = a + "-" + b
		}
		if g.rng.Bool(0.25) {
			name += fmt.Sprintf("%d", g.rng.Intn(100))
		}
		tld := benignTLDs[g.benignTLD.Pick()]
		return domain.Name(name + "." + tld)
	})
}

// Obscure returns a fresh random-string registered domain — the kind a
// random generator can collide with.
func (g *nameGen) Obscure() (domain.Name, symtab.ID) {
	return g.unique(func() domain.Name {
		return domain.Name(g.rng.AlphaNum(6+g.rng.Intn(6)) + ".com")
	})
}

// programName synthesizes an affiliate program name.
func programName(rng *randutil.RNG, cat Category, idx int) string {
	nouns := programNouns[cat]
	adj := programAdjectives[rng.Intn(len(programAdjectives))]
	noun := nouns[rng.Intn(len(nouns))]
	return fmt.Sprintf("%s %s #%d", adj, noun, idx)
}

// botnetNames are flavor names for the simulated botnets; the first is
// the Rustock-like poisoner.
var botnetNames = []string{
	"rustwork", "megadrive", "stormline", "cutwheel", "grumbot",
	"lethovic", "bagelnet", "xarvester", "donbot", "festeron",
	"waledoc", "bobaxen", "kelihorse", "ozdocker", "spamthru",
	"srizbee", "ghegnet", "maazben", "asprox", "darkmail",
	"nucrypt", "wopla", "chegern", "tofsee", "slenfbot",
	"vulcanbot", "firebird", "hydranet", "coldriver", "nightowl",
}
