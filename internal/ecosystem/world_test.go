package ecosystem

import (
	"hash/fnv"
	"testing"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// symbolDigest hashes every symbol of w.Syms in ID order.
func symbolDigest(w *World) uint64 {
	h := fnv.New64a()
	for id := 0; id < w.Syms.Len(); id++ {
		h.Write([]byte(w.Syms.Lookup(symtab.ID(id))))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestGenerateSymbolOrderPinned pins symbol ID assignment: the table
// Generate leaves behind, symbol by symbol in ID order. Feeds, the
// oracle and every golden downstream carry these IDs, so any change to
// the interning order shows here first. The digests were taken when
// the world still interned in a separate pass after generation
// (benign name then chaff URL, obscure names, then each campaign
// slot's name then ad URL).
func TestGenerateSymbolOrderPinned(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		n      int
		digest uint64
	}{
		{"test-7", testConfig(7), 5065, 0xff9e14d536c0779b},
		{"default-7", DefaultConfig(7), 79348, 0x3456807b32e0f0a4},
		{"default-2010", DefaultConfig(2010), 79200, 0x6f596327e9c4e2d5},
	}
	for _, c := range cases {
		w := MustGenerate(c.cfg)
		if got, d := w.Syms.Len(), symbolDigest(w); got != c.n || d != c.digest {
			t.Errorf("%s: %d symbols, digest %#x; want %d, %#x", c.name, got, d, c.n, c.digest)
		}
		checkSymFields(t, w)
	}
}

// checkSymFields verifies every Sym/URLSym field names its string.
func checkSymFields(t *testing.T, w *World) {
	t.Helper()
	tab := w.Syms
	for i := range w.Benign {
		b := &w.Benign[i]
		if tab.Lookup(b.Sym) != string(b.Name) || tab.Lookup(b.URLSym) != ChaffURL(b.Name) {
			t.Fatalf("benign %d: syms %d/%d do not name %s", i, b.Sym, b.URLSym, b.Name)
		}
	}
	for i, d := range w.Obscure {
		if tab.Lookup(w.ObscureSyms[i]) != string(d) {
			t.Fatalf("obscure %d: sym %d does not name %s", i, w.ObscureSyms[i], d)
		}
	}
	for ci := range w.Campaigns {
		c := &w.Campaigns[ci]
		for _, slot := range c.Domains {
			if tab.Lookup(slot.Sym) != string(slot.Name) || tab.Lookup(slot.URLSym) != AdURL(c, slot) {
				t.Fatalf("campaign %d slot %s: syms %d/%d disagree", c.ID, slot.Name, slot.Sym, slot.URLSym)
			}
		}
	}
}

// TestInfoSymMatchesInfo checks the symbol and name lookups of ground
// truth agree for every generated name and for names the world does
// not know, and that every Registry name has ground truth — labeling
// relies on that to skip the zone check for unknown symbols.
func TestInfoSymMatchesInfo(t *testing.T) {
	w := MustGenerate(testConfig(5))
	check := func(d domain.Name, sym symtab.ID) {
		t.Helper()
		a, okA := w.Info(d)
		b, okB := w.InfoSym(sym)
		if !okA || !okB || a != b {
			t.Fatalf("%s: Info = %p/%v, InfoSym(%d) = %p/%v", d, a, okA, sym, b, okB)
		}
	}
	var names int
	for i := range w.Benign {
		check(w.Benign[i].Name, w.Benign[i].Sym)
		names++
	}
	for i, d := range w.Obscure {
		check(d, w.ObscureSyms[i])
		names++
	}
	for ci := range w.Campaigns {
		for _, slot := range w.Campaigns[ci].Domains {
			check(slot.Name, slot.Sym)
			if !slot.Redirector {
				names++
			}
		}
	}
	known := 0
	for id := 0; id < w.Syms.Len(); id++ {
		if _, ok := w.InfoSym(symtab.ID(id)); ok {
			known++
		}
	}
	if known != names {
		t.Fatalf("%d symbols have ground truth, want one per generated name (%d)", known, names)
	}

	// Unknown: a URL symbol, a name interned after generation, a name
	// never interned, and a symbol past the table.
	if _, ok := w.InfoSym(w.Benign[0].URLSym); ok {
		t.Fatal("InfoSym of a URL symbol reported ground truth")
	}
	junk := domain.Name("zzqqxxjunk0.com")
	junkSym := w.Syms.Intern(string(junk))
	if _, ok := w.Info(junk); ok {
		t.Fatal("Info of a post-generation name reported ground truth")
	}
	if _, ok := w.InfoSym(junkSym); ok {
		t.Fatal("InfoSym of a post-generation name reported ground truth")
	}
	if _, ok := w.Info("no-such-domain.invalid"); ok {
		t.Fatal("Info of an unknown name reported ground truth")
	}
	if _, ok := w.InfoSym(symtab.ID(w.Syms.Len() + 10)); ok {
		t.Fatal("InfoSym past the table reported ground truth")
	}

	// Every registered name has ground truth: each info marked
	// Registered is in the Registry, and the Registry holds no more
	// names than that.
	always := simclock.Window{Start: simclock.PaperStart.AddDate(-50, 0, 0), End: simclock.PaperStart.AddDate(50, 0, 0)}
	registered := 0
	for id := 0; id < w.Syms.Len(); id++ {
		info, ok := w.InfoSym(symtab.ID(id))
		if !ok || !info.Registered {
			continue
		}
		registered++
		if d := domain.Name(w.Syms.Lookup(symtab.ID(id))); !w.Registry.AppearedDuring(d, always) {
			t.Fatalf("%s has Registered ground truth but no zone record", d)
		}
	}
	if n := w.Registry.Size(); n != registered {
		t.Fatalf("Registry holds %d names, ground truth marks %d registered", n, registered)
	}
}
