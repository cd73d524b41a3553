package datagen

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ccer-go/ccer/internal/dataset"
	"github.com/ccer-go/ccer/internal/strsim"
)

func TestSpecsShape(t *testing.T) {
	specs := Specs()
	if len(specs) != 10 {
		t.Fatalf("Specs: %d, want 10", len(specs))
	}
	wantCat := map[string]Category{
		"D1": Scarce, "D2": Balanced, "D3": OneSided, "D4": Balanced,
		"D5": Scarce, "D6": Scarce, "D7": Scarce, "D8": Scarce,
		"D9": OneSided, "D10": Balanced,
	}
	for i, s := range specs {
		if s.ID == "" || s.N1 <= 0 || s.N2 <= 0 || s.Dupes <= 0 {
			t.Fatalf("spec %d incomplete: %+v", i, s)
		}
		if s.Dupes > s.N1 || s.Dupes > s.N2 {
			t.Fatalf("%s: more dupes than entities", s.ID)
		}
		if got := wantCat[s.ID]; got != s.Category {
			t.Fatalf("%s category = %s, want %s", s.ID, s.Category, got)
		}
		if len(s.KeyAttrs) == 0 {
			t.Fatalf("%s has no key attributes", s.ID)
		}
		for _, k := range s.KeyAttrs {
			if !contains(s.Attrs1, k) && !contains(s.Attrs2, k) {
				t.Fatalf("%s key attribute %q not in either schema", s.ID, k)
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestSpecByID(t *testing.T) {
	s, err := SpecByID("D4")
	if err != nil || s.ID != "D4" {
		t.Fatalf("SpecByID(D4) = %v, %v", s.ID, err)
	}
	if _, err := SpecByID("D11"); err == nil {
		t.Fatal("SpecByID accepted unknown id")
	}
}

func TestGenerateSizesAndGroundTruth(t *testing.T) {
	for _, s := range Specs() {
		task := s.Generate(7, 0.05)
		n1, n2 := task.V1.Len(), task.V2.Len()
		if n1 < minSide || n2 < minSide {
			t.Fatalf("%s: sides too small (%d,%d)", s.ID, n1, n2)
		}
		if err := task.GT.Validate(n1, n2); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if task.GT.Len() == 0 {
			t.Fatalf("%s: empty ground truth", s.ID)
		}
		if task.GT.Len() > n1 || task.GT.Len() > n2 {
			t.Fatalf("%s: more matches than entities", s.ID)
		}
		// Size ratio shape: side 2 bigger iff Table 2 says so (within
		// slack for the minSide floor).
		if s.N2 > s.N1*2 && n2 <= n1 {
			t.Fatalf("%s: size ratio lost (%d,%d)", s.ID, n1, n2)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := SpecByID("D2")
	a := s.Generate(42, 0.05)
	b := s.Generate(42, 0.05)
	if !reflect.DeepEqual(a.V1, b.V1) || !reflect.DeepEqual(a.V2, b.V2) ||
		!reflect.DeepEqual(a.GT.Pairs, b.GT.Pairs) {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
	c := s.Generate(43, 0.05)
	if reflect.DeepEqual(a.V1, c.V1) {
		t.Fatal("different seeds produced identical data")
	}
}

// Matched pairs must be textually closer than random non-matched pairs on
// average — otherwise the generated ground truth is meaningless.
func TestGenerateMatchesAreSimilar(t *testing.T) {
	for _, s := range Specs() {
		task := s.Generate(11, 0.05)
		texts1 := task.V1.Texts()
		texts2 := task.V2.Texts()
		simOf := func(i, j int32) float64 {
			return strsim.GeneralizedJaccard(
				strsim.Tokenize(texts1[i]), strsim.Tokenize(texts2[j]))
		}
		rng := rand.New(rand.NewSource(3))
		matchSum, n := 0.0, 0
		for _, p := range task.GT.Pairs {
			matchSum += simOf(p[0], p[1])
			n++
		}
		randSum, rn := 0.0, 0
		for k := 0; k < 300; k++ {
			i := int32(rng.Intn(task.V1.Len()))
			j := int32(rng.Intn(task.V2.Len()))
			if task.GT.IsMatch(i, j) {
				continue
			}
			randSum += simOf(i, j)
			rn++
		}
		matchAvg := matchSum / float64(n)
		randAvg := randSum / float64(rn)
		if matchAvg <= randAvg+0.05 {
			t.Fatalf("%s: matches (%.3f) not clearly more similar than random pairs (%.3f)",
				s.ID, matchAvg, randAvg)
		}
	}
}

func TestNoiseForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	t.Run("typos", func(t *testing.T) {
		changed := 0
		for i := 0; i < 100; i++ {
			if typos(rng, "hello world example", 0.1) != "hello world example" {
				changed++
			}
		}
		if changed < 50 {
			t.Fatalf("typos changed only %d/100", changed)
		}
		if typos(rng, "abc", 0) != "abc" {
			t.Fatal("zero-probability typos changed the string")
		}
	})

	t.Run("dropToken", func(t *testing.T) {
		if got := dropToken(rng, "single"); got != "single" {
			t.Fatalf("dropToken on single token = %q", got)
		}
		got := dropToken(rng, "a b c")
		if len(strsim.Tokenize(got)) != 2 {
			t.Fatalf("dropToken result %q does not have 2 tokens", got)
		}
	})

	t.Run("swapTokens", func(t *testing.T) {
		got := swapTokens(rng, "a b")
		if got != "b a" {
			t.Fatalf("swapTokens = %q, want %q", got, "b a")
		}
	})

	t.Run("abbreviate", func(t *testing.T) {
		if got := abbreviate("george papadakis"); got != "g. papadakis" {
			t.Fatalf("abbreviate = %q", got)
		}
		if got := abbreviate("x"); got != "x" {
			t.Fatalf("abbreviate single short token = %q", got)
		}
	})

	t.Run("misplace", func(t *testing.T) {
		moved := 0
		for i := 0; i < 200; i++ {
			attrs := map[string]string{"title": "some title", "authors": "a b"}
			n := Noise{Misplace: 1}
			n.Apply(rng, attrs, []string{"title", "authors"}, nil)
			if attrs["title"] == "" || attrs["authors"] == "" {
				moved++
			}
		}
		if moved < 50 {
			t.Fatalf("misplace moved only %d/200", moved)
		}
	})

	t.Run("missing protects unique attr", func(t *testing.T) {
		for i := 0; i < 100; i++ {
			attrs := map[string]string{"title": "x y", "modelno": "AB-1"}
			n := Noise{Missing: 1}
			n.Apply(rng, attrs, []string{"title", "modelno"}, map[string]bool{"modelno": true})
			if attrs["modelno"] == "" {
				t.Fatal("protected attribute was cleared")
			}
			if attrs["title"] != "" {
				t.Fatal("Missing=1 did not clear an unprotected attribute")
			}
		}
	})
}

func TestDomainGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []Domain{Restaurants, Products, Bibliographic, Movies} {
		attrs := d.generate(rng, 123)
		if len(attrs) < 4 {
			t.Fatalf("domain %d: only %d attributes", d, len(attrs))
		}
		if u := d.uniqueAttr(); attrs[u] == "" {
			t.Fatalf("domain %d: unique attribute %q empty", d, u)
		}
		for k, v := range attrs {
			if v == "" {
				t.Fatalf("domain %d: empty value for %q", d, k)
			}
		}
	}
}

func TestUniqueAttrDistinguishesEntities(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []Domain{Restaurants, Products, Bibliographic} {
		seen := map[string]bool{}
		for i := 0; i < 500; i++ {
			v := d.generate(rng, i)[d.uniqueAttr()]
			if seen[v] {
				t.Fatalf("domain %d: unique attribute collided at %d: %q", d, i, v)
			}
			seen[v] = true
		}
	}
}

func TestTaskJSONRoundTrip(t *testing.T) {
	s, _ := SpecByID("D1")
	task := s.Generate(5, 0.05)
	var buf bytes.Buffer
	if err := task.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadTaskJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.V1.Len() != task.V1.Len() || back.V2.Len() != task.V2.Len() ||
		back.GT.Len() != task.GT.Len() {
		t.Fatal("round trip changed sizes")
	}
	if !back.GT.IsMatch(task.GT.Pairs[0][0], task.GT.Pairs[0][1]) {
		t.Fatal("round trip lost ground truth")
	}
}

// Any (seed, scale) yields structurally valid tasks.
func TestPropertyGenerateValid(t *testing.T) {
	specs := Specs()
	f := func(seed int64, which uint8) bool {
		s := specs[int(which)%len(specs)]
		task := s.Generate(seed, 0.02)
		if err := task.GT.Validate(task.V1.Len(), task.V2.Len()); err != nil {
			return false
		}
		// Every profile carries at least one non-empty value.
		for _, p := range task.V1.Profiles {
			if p.NumPairs() == 0 {
				return false
			}
		}
		for _, p := range task.V2.Profiles {
			if p.NumPairs() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestScaledSizesPredictGenerate(t *testing.T) {
	spec, err := SpecByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.01, 0.02, 0.1} {
		n1, n2 := spec.ScaledSizes(scale)
		task := spec.Generate(1, scale)
		if task.V1.Len() != n1 || task.V2.Len() != n2 {
			t.Fatalf("scale %g: predicted %d/%d, generated %d/%d",
				scale, n1, n2, task.V1.Len(), task.V2.Len())
		}
	}
	// Absurd scales saturate instead of overflowing into negative sizes.
	n1, n2 := spec.ScaledSizes(1e30)
	if n1 <= 0 || n2 <= 0 {
		t.Fatalf("huge scale produced non-positive sizes %d/%d", n1, n2)
	}
	if n1, _ := spec.ScaledSizes(math.NaN()); n1 != 25 {
		t.Fatalf("NaN scale = %d, want the 25 floor", n1)
	}
}
