package scheme

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genDatum builds a random printable datum of bounded depth.
func genDatum(rng *rand.Rand, depth int) Value {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(6) {
		case 0:
			return int64(rng.Intn(2000) - 1000)
		case 1:
			return rng.Float64()*100 - 50
		case 2:
			return rng.Intn(2) == 0
		case 3:
			syms := []Symbol{"foo", "bar", "baz+", "set!", "a-b", "<=>", "x1"}
			return syms[rng.Intn(len(syms))]
		case 4:
			strs := []string{"", "hello", "two words", "tab\there", "q\"uote"}
			return NewSString(strs[rng.Intn(len(strs))])
		default:
			chars := []Char{'a', 'Z', '0', ' ', '\n', '\t'}
			return chars[rng.Intn(len(chars))]
		}
	}
	switch rng.Intn(3) {
	case 0: // proper list
		n := rng.Intn(4)
		items := make([]Value, n)
		for i := range items {
			items[i] = genDatum(rng, depth-1)
		}
		return List(items...)
	case 1: // vector
		n := rng.Intn(3)
		items := make([]Value, n)
		for i := range items {
			items[i] = genDatum(rng, depth-1)
		}
		return &Vector{Items: items}
	default: // dotted pair
		return Cons(genDatum(rng, depth-1), genDatum(rng, depth-1))
	}
}

// Property: write → read round-trips every generated datum.
func TestReaderPrinterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := genDatum(rng, 4)
		text := WriteString(d)
		back, err := ReadOne(text)
		if err != nil {
			t.Logf("seed %d: read %q failed: %v", seed, text, err)
			return false
		}
		if !Equal(d, back) {
			// Floats print with %g and reparse exactly; if this fires the
			// printer and reader genuinely disagree.
			t.Logf("seed %d: %q reparsed as %q", seed, text, WriteString(back))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDisplayDiffer(t *testing.T) {
	s := NewSString("hi\n")
	if WriteString(s) == DisplayString(s) {
		t.Fatal("write and display agree on strings")
	}
	if DisplayString(s) != "hi\n" {
		t.Fatalf("display = %q", DisplayString(s))
	}
	c := Char('x')
	if WriteString(c) != "#\\x" || DisplayString(c) != "x" {
		t.Fatalf("char forms: %q %q", WriteString(c), DisplayString(c))
	}
}

func TestCyclicStructurePrinting(t *testing.T) {
	p := Cons(int64(1), Empty)
	p.Cdr = p // cycle
	out := WriteString(p)
	if out == "" {
		t.Fatal("empty output for cycle")
	}
	// Must terminate and mark the cycle.
	if want := "#[cycle]"; !contains(out, want) {
		t.Fatalf("cycle not marked: %q", out)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestReaderNumbersAndSymbols(t *testing.T) {
	cases := map[string]string{
		"+":     "+",
		"-":     "-",
		"...":   "...",
		"1e3":   "1000.",
		"-2.5":  "-2.5",
		".5":    "0.5",
		"1/2":   "1/2", // no rationals: reads as a symbol
		"a.b":   "a.b",
		"-abc":  "-abc",
		"12abc": "12abc", // not a number: symbol
	}
	for src, want := range cases {
		v, err := ReadOne(src)
		if err != nil {
			t.Errorf("read %q: %v", src, err)
			continue
		}
		if got := WriteString(v); got != want {
			t.Errorf("read %q = %s, want %s", src, got, want)
		}
	}
}

// TestParseAtomKinds pins what each token reads as — integer, float or
// symbol, and which value — including the tokens a float parser accepts
// but the reader keeps as symbols (no digit) and those it rejects.
func TestParseAtomKinds(t *testing.T) {
	for tok, want := range map[string]Value{
		"+": Symbol("+"), "-": Symbol("-"), "...": Symbol("..."),
		"inf": Symbol("inf"), "nan": Symbol("nan"), "-inf": Symbol("-inf"),
		"Infinity": Symbol("Infinity"), "+inf.0": Symbol("+inf.0"),
		"+nan.0": Symbol("+nan.0"), "1+": Symbol("1+"), "0x10": Symbol("0x10"),
		"x1": Symbol("x1"), "vector->list": Symbol("vector->list"),
		"1e400": Symbol("1e400"),

		"-5":                   int64(-5),
		"-9223372036854775808": int64(math.MinInt64),
		"9223372036854775808":  float64(1 << 63),
		"1e3":                  float64(1000),
		".5":                   float64(0.5),
		"0x1p4":                float64(16),
	} {
		got, err := parseAtom(tok)
		if err != nil || got != want {
			t.Errorf("parseAtom(%q) = %#v (%T), %v; want %#v (%T)", tok, got, got, err, want, want)
		}
	}
}

func TestReadAllMultiple(t *testing.T) {
	data, err := ReadAll("1 2 (3 4) ; trailing comment\n#t")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("read %d data", len(data))
	}
	if WriteString(data[2]) != "(3 4)" {
		t.Fatalf("data[2] = %s", WriteString(data[2]))
	}
}
