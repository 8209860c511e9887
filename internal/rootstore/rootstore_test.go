package rootstore

import (
	"crypto/x509"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"tangledmass/internal/certgen"
	"tangledmass/internal/certid"
)

// testCerts issues n distinct root certificates.
func testCerts(t *testing.T, seed int64, n int) []*x509.Certificate {
	t.Helper()
	g := certgen.NewGenerator(seed)
	out := make([]*x509.Certificate, n)
	for i := range out {
		ca, err := g.SelfSignedCA("Root " + string(rune('A'+i%26)) + "-" + string(rune('0'+i/26)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ca.Cert
	}
	return out
}

func TestAddRemoveContains(t *testing.T) {
	certs := testCerts(t, 1, 3)
	s := New("test")
	if s.Len() != 0 {
		t.Fatal("new store should be empty")
	}
	for _, c := range certs {
		if !s.Add(c) {
			t.Error("first Add should return true")
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Add(certs[0]) {
		t.Error("duplicate Add should return false")
	}
	if s.Len() != 3 {
		t.Error("duplicate Add changed Len")
	}
	if !s.Contains(certs[1]) {
		t.Error("Contains should find added cert")
	}
	id := certid.IdentityOf(certs[1])
	if !s.Remove(id) {
		t.Error("Remove should report presence")
	}
	if s.Remove(id) {
		t.Error("second Remove should report absence")
	}
	if s.Contains(certs[1]) {
		t.Error("removed cert still present")
	}
	if s.Len() != 2 {
		t.Fatalf("Len after remove = %d, want 2", s.Len())
	}
}

func TestAddEquivalentRejected(t *testing.T) {
	g := certgen.NewGenerator(2)
	orig, err := g.SelfSignedCA("Dup Root")
	if err != nil {
		t.Fatal(err)
	}
	re, err := g.Reissue(orig, certgen.WithValidity(certgen.Epoch, certgen.Epoch.AddDate(30, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	s := New("dup")
	s.Add(orig.Cert)
	if s.Add(re.Cert) {
		t.Error("equivalent (reissued) cert should be rejected as duplicate")
	}
	if got := s.Get(certid.IdentityOf(re.Cert)); !got.Equal(orig.Cert) {
		t.Error("first-seen instance should win")
	}
}

func TestInsertionOrderPreserved(t *testing.T) {
	certs := testCerts(t, 3, 5)
	s := New("order")
	for _, c := range certs {
		s.Add(c)
	}
	got := s.Certificates()
	for i := range certs {
		if !got[i].Equal(certs[i]) {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestSetOps(t *testing.T) {
	certs := testCerts(t, 4, 6)
	a := New("a")
	a.AddAll(certs[:4]) // 0 1 2 3
	b := New("b")
	b.AddAll(certs[2:]) // 2 3 4 5

	u := Union("u", a, b)
	if u.Len() != 6 {
		t.Errorf("union Len = %d, want 6", u.Len())
	}
	i := Intersect("i", a, b)
	if i.Len() != 2 {
		t.Errorf("intersect Len = %d, want 2", i.Len())
	}
	sub := Subtract("s", a, b)
	if sub.Len() != 2 {
		t.Errorf("subtract Len = %d, want 2", sub.Len())
	}
	if !sub.Contains(certs[0]) || !sub.Contains(certs[1]) {
		t.Error("subtract kept wrong certs")
	}

	d := Diff(a, b)
	if len(d.OnlyA) != 2 || len(d.OnlyB) != 2 || len(d.Both) != 2 {
		t.Errorf("diff = %d/%d/%d, want 2/2/2", len(d.OnlyA), len(d.OnlyB), len(d.Both))
	}
}

func TestSetOpsProperties(t *testing.T) {
	certs := testCerts(t, 5, 8)
	// Property: for random bipartitions, |A| = |A∩B| + |A\B| and
	// |A∪B| = |A| + |B| - |A∩B|.
	err := quick.Check(func(mask uint8) bool {
		a, b := New("a"), New("b")
		for i, c := range certs {
			if mask&(1<<i) != 0 {
				a.Add(c)
			} else {
				b.Add(c)
			}
			// Overlap: every third cert goes to both.
			if i%3 == 0 {
				a.Add(c)
				b.Add(c)
			}
		}
		inter := Intersect("i", a, b)
		subAB := Subtract("s", a, b)
		union := Union("u", a, b)
		if a.Len() != inter.Len()+subAB.Len() {
			return false
		}
		return union.Len() == a.Len()+b.Len()-inter.Len()
	}, &quick.Config{MaxCount: 64})
	if err != nil {
		t.Error(err)
	}
}

func TestEqualAndClone(t *testing.T) {
	certs := testCerts(t, 6, 4)
	a := New("a")
	a.AddAll(certs)
	c := a.Clone("copy")
	if !Equal(a, c) {
		t.Error("clone should equal original")
	}
	c.Remove(certid.IdentityOf(certs[0]))
	if Equal(a, c) {
		t.Error("mutated clone should differ")
	}
	if a.Len() != 4 {
		t.Error("mutating clone affected original")
	}
	b := New("b")
	b.AddAll(certs[:3])
	b.Add(testCerts(t, 7, 1)[0])
	if Equal(a, b) {
		t.Error("stores with different members should not be Equal")
	}
}

// storeState is everything observable about a store's membership.
type storeState struct {
	n   int
	ids []certid.Identity
	key string
}

func stateOf(s *Store) storeState {
	return storeState{n: s.Len(), ids: s.Identities(), key: s.ContentKey()}
}

// assertState checks s against want: length, order, content key, and
// membership of every certificate in universe.
func assertState(t *testing.T, label string, s *Store, want storeState, universe []*x509.Certificate) {
	t.Helper()
	got := stateOf(s)
	if got.n != want.n || got.key != want.key || len(got.ids) != len(want.ids) {
		t.Fatalf("%s: len %d key %s, want len %d key %s", label, got.n, got.key, want.n, want.key)
	}
	member := map[certid.Identity]bool{}
	for i, id := range want.ids {
		if got.ids[i] != id {
			t.Fatalf("%s: order differs at %d", label, i)
		}
		member[id] = true
	}
	for i, c := range universe {
		if id := certid.IdentityOf(c); s.ContainsIdentity(id) != member[id] {
			t.Fatalf("%s: membership of certificate %d is %v, want %v", label, i, !member[id], member[id])
		}
	}
}

// TestCloneCopyOnWrite mutates one side of a clone pair — the clone, the
// source, or a clone of a clone — and checks the other sides are untouched.
// The source is built with spare capacity so an append through a shared
// order slice would land in the other store's backing array.
func TestCloneCopyOnWrite(t *testing.T) {
	certs := testCerts(t, 9, 6)
	mutations := map[string]func(s *Store){
		"add":           func(s *Store) { s.Add(certs[5]) },
		"remove-middle": func(s *Store) { s.Remove(certid.IdentityOf(certs[1])) },
		"remove-add":    func(s *Store) { s.Remove(certid.IdentityOf(certs[0])); s.Add(certs[5]) },
	}
	labels := []string{"source", "clone", "clone-of-clone"}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			for target, label := range labels {
				src := NewSized("src", New("").Corpus(), 16)
				src.AddAll(certs[:4])
				clone := src.Clone("clone")
				stores := []*Store{src, clone, clone.Clone("grand")}
				before := stateOf(src)
				mutate(stores[target])
				if stateOf(stores[target]).key == before.key {
					t.Fatalf("%s: mutation had no effect", label)
				}
				for i, s := range stores {
					if i != target {
						assertState(t, label+" mutated, "+labels[i], s, before, certs)
					}
				}
				// The other stores must stay independently writable.
				for i, s := range stores {
					if i != target {
						s.Add(certs[4])
					}
				}
				if stores[target].ContainsIdentity(certid.IdentityOf(certs[4])) {
					t.Fatalf("%s: later writes to its siblings leaked into it", label)
				}
			}
		})
	}
}

// TestCloneConcurrent clones one base from many goroutines, each mutating
// its own clone while the others read the base. Run under -race.
func TestCloneConcurrent(t *testing.T) {
	certs := testCerts(t, 10, 8)
	base := New("base")
	base.AddAll(certs[:6])
	want := stateOf(base)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := base.Clone("worker")
			c.Remove(certid.IdentityOf(certs[g%6]))
			c.Add(certs[6+g%2])
			if c.Len() != 6 || base.Len() != 6 {
				t.Errorf("worker %d: clone len %d, base len %d, want 6 and 6", g, c.Len(), base.Len())
			}
			n := 0
			base.Each(func(id certid.Identity) {
				if c.ContainsIdentity(id) {
					n++
				}
			})
			if n != 5 {
				t.Errorf("worker %d: clone shares %d base members, want 5", g, n)
			}
		}(g)
	}
	wg.Wait()
	assertState(t, "base after concurrent clones", base, want, certs)
}

func TestCloneAndEachAllocs(t *testing.T) {
	s := New("allocs")
	s.AddAll(testCerts(t, 11, 5))
	if n := testing.AllocsPerRun(100, func() { _ = s.Clone("c") }); n > 1 {
		t.Errorf("Clone allocates %v times, want at most 1", n)
	}
	var got []certid.Identity
	s.Each(func(id certid.Identity) { got = append(got, id) })
	for i, id := range s.Identities() {
		if got[i] != id {
			t.Fatalf("Each order differs from Identities at %d", i)
		}
	}
	count := 0
	if n := testing.AllocsPerRun(100, func() { s.Each(func(certid.Identity) { count++ }) }); n != 0 {
		t.Errorf("Each allocates %v times, want 0", n)
	}
}

func TestCertificatesCopyIsSafe(t *testing.T) {
	certs := testCerts(t, 8, 2)
	s := New("safe")
	s.AddAll(certs)
	got := s.Certificates()
	got[0] = nil
	if s.Certificates()[0] == nil {
		t.Error("mutating returned slice affected store")
	}
}

func TestCacertsRoundTrip(t *testing.T) {
	certs := testCerts(t, 9, 5)
	s := New("android")
	s.AddAll(certs)
	dir := filepath.Join(t.TempDir(), "cacerts")
	if err := WriteCacertsDir(dir, s); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("wrote %d files, want 5", len(entries))
	}
	for _, e := range entries {
		if !validCacertsName(e.Name()) {
			t.Errorf("file name %q not in <hash>.<n> form", e.Name())
		}
	}
	back, err := ReadCacertsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, back) {
		t.Error("round-trip changed store membership")
	}
}

func TestCacertsHashCollision(t *testing.T) {
	// Two distinct-key certs with the same subject collide on subject hash
	// and must be written as hash.0 and hash.1.
	g := certgen.NewGenerator(10)
	a, _ := g.SelfSignedCA("Collide", certgen.WithKeyName("ka"))
	b, _ := g.SelfSignedCA("Collide", certgen.WithKeyName("kb"))
	s := New("collide")
	if !s.Add(a.Cert) || !s.Add(b.Cert) {
		t.Fatal("both certs should be distinct identities")
	}
	dir := filepath.Join(t.TempDir(), "cacerts")
	if err := WriteCacertsDir(dir, s); err != nil {
		t.Fatal(err)
	}
	hash := certid.SubjectHashString(a.Cert)
	for _, suffix := range []string{".0", ".1"} {
		if _, err := os.Stat(filepath.Join(dir, hash+suffix)); err != nil {
			t.Errorf("missing %s%s: %v", hash, suffix, err)
		}
	}
	back, err := ReadCacertsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("read back %d certs, want 2", back.Len())
	}
}

func TestReadCacertsRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.0"), []byte("not a cert"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCacertsDir(dir); err == nil {
		t.Error("garbage PEM should be an error")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCacertsDir(dir2); err == nil {
		t.Error("non-cacerts file name should be an error")
	}
}

func TestPEMBundleRoundTrip(t *testing.T) {
	certs := testCerts(t, 11, 3)
	s := New("bundle")
	s.AddAll(certs)
	back, err := LoadPEM("bundle2", s.EncodePEM())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, back) {
		t.Error("PEM bundle round-trip changed membership")
	}
}

func TestValidCacertsName(t *testing.T) {
	good := []string{"00000000.0", "deadbeef.12", "979eb027.1"}
	bad := []string{"deadbeef", "DEADBEEF.0", "deadbee.0", "deadbeef.x", "deadbeef0", "xx.0"}
	for _, n := range good {
		if !validCacertsName(n) {
			t.Errorf("%q should be valid", n)
		}
	}
	for _, n := range bad {
		if validCacertsName(n) {
			t.Errorf("%q should be invalid", n)
		}
	}
}

func TestSortedSubjectsAndString(t *testing.T) {
	certs := testCerts(t, 12, 3)
	s := New("pretty")
	s.AddAll(certs)
	subj := s.SortedSubjects()
	if len(subj) != 3 {
		t.Fatalf("got %d subjects", len(subj))
	}
	for i := 1; i < len(subj); i++ {
		if subj[i-1] > subj[i] {
			t.Error("subjects not sorted")
		}
	}
	if s.String() != "pretty (3 roots)" {
		t.Errorf("String = %q", s.String())
	}
}
