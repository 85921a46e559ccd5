package dns

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct {
		in   string
		want Name
	}{
		{"Example.COM", "example.com"},
		{"example.com.", "example.com"},
		{".", ""},
		{"", ""},
		{"WWW.Example.Com.", "www.example.com"},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseNameValidation(t *testing.T) {
	valid := []string{"example.com", "a.b.c.d.e", "xn--bcher-kva.de", "*.example.com",
		"_dmarc.example.com", "gov.cn", "a-b.example.com", "."}
	for _, s := range valid {
		if _, err := ParseName(s); err != nil {
			t.Errorf("ParseName(%q) unexpected error: %v", s, err)
		}
	}
	invalid := []string{
		"exa mple.com",
		"ex!ample.com",
		strings.Repeat("a", 64) + ".com",
		strings.Repeat("abcdefgh.", 32) + "com", // > 255 octets
		"a..b",
	}
	for _, s := range invalid {
		if _, err := ParseName(s); err == nil {
			t.Errorf("ParseName(%q) expected error", s)
		}
	}
}

func TestNameRelations(t *testing.T) {
	n := MustParseName("www.example.com")
	if got := n.Parent(); got != "example.com" {
		t.Errorf("Parent = %q", got)
	}
	if got := Name("com").Parent(); got != Root {
		t.Errorf("Parent of TLD = %q, want root", got)
	}
	if got := Root.Parent(); got != Root {
		t.Errorf("Parent of root = %q", got)
	}
	if !n.IsSubdomainOf("example.com") {
		t.Error("www.example.com should be subdomain of example.com")
	}
	if !n.IsSubdomainOf(Root) {
		t.Error("everything is a subdomain of root")
	}
	if n.IsSubdomainOf("ample.com") {
		t.Error("www.example.com must not match suffix-overlapping ample.com")
	}
	if !n.IsProperSubdomainOf("example.com") {
		t.Error("proper subdomain expected")
	}
	if n.IsProperSubdomainOf("www.example.com") {
		t.Error("a name is not a proper subdomain of itself")
	}
	if got := Name("example.com").Child("api"); got != "api.example.com" {
		t.Errorf("Child = %q", got)
	}
	if got := Root.Child("com"); got != "com" {
		t.Errorf("Child of root = %q", got)
	}
	if got := n.CountLabels(); got != 3 {
		t.Errorf("CountLabels = %d", got)
	}
	if got := Root.CountLabels(); got != 0 {
		t.Errorf("CountLabels(root) = %d", got)
	}
}

func TestPackUnpackNameRoundtrip(t *testing.T) {
	names := []Name{Root, "com", "example.com", "www.example.com",
		"*.example.com", "a.b.c.d.e.f.g.h"}
	for _, n := range names {
		buf, err := packName(nil, n, nil)
		if err != nil {
			t.Fatalf("packName(%q): %v", n, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", n, err)
		}
		if got != n {
			t.Errorf("roundtrip %q -> %q", n, got)
		}
		if off != len(buf) {
			t.Errorf("offset %d, want %d", off, len(buf))
		}
	}
}

func TestNameCompression(t *testing.T) {
	compress := &compressor{}
	buf, err := packName(nil, "www.example.com", compress)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = packName(buf, "mail.example.com", compress)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should be: 4"mail" + 2-byte pointer = 7 bytes.
	if len(buf)-first != 7 {
		t.Errorf("compressed second name used %d bytes, want 7", len(buf)-first)
	}
	n1, off, err := unpackName(buf, 0)
	if err != nil || n1 != "www.example.com" {
		t.Fatalf("first name %q err %v", n1, err)
	}
	n2, _, err := unpackName(buf, off)
	if err != nil || n2 != "mail.example.com" {
		t.Fatalf("second name %q err %v", n2, err)
	}
}

func TestUnpackNameHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"truncated label":  {5, 'a', 'b'},
		"missing root":     {1, 'a'},
		"forward pointer":  {0xC0, 5},
		"self pointer":     {0xC0, 0},
		"reserved bits":    {0x80, 0},
		"truncated ptr":    {0xC0},
		"loop via pointer": {1, 'a', 0xC0, 0},
	}
	for name, buf := range cases {
		if _, _, err := unpackName(buf, 0); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// randomName generates a plausible valid DNS name for property tests.
func randomName(r *rand.Rand) Name {
	labels := r.Intn(5) + 1
	parts := make([]string, labels)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	for i := range parts {
		n := r.Intn(10) + 1
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet)-1)] // avoid '-' at random spots is fine; '-' allowed
		}
		parts[i] = string(b)
	}
	return Name(strings.Join(parts, "."))
}

func TestQuickNameRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		buf, err := packName(nil, n, nil)
		if err != nil {
			return false
		}
		got, _, err := unpackName(buf, 0)
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompressedPackIsEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := randomName(r)
		names := []Name{base, base.Child("www"), base.Child("mail"), base.Parent()}
		compress := &compressor{}
		var buf []byte
		var offs []int
		for _, n := range names {
			offs = append(offs, len(buf))
			var err error
			buf, err = packName(buf, n, compress)
			if err != nil {
				return false
			}
		}
		for i, n := range names {
			got, _, err := unpackName(buf, offs[i])
			if err != nil || got != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNameStringPresentation(t *testing.T) {
	if got := Root.String(); got != "." {
		t.Errorf("root String = %q", got)
	}
	if got := Name("example.com").String(); got != "example.com." {
		t.Errorf("String = %q", got)
	}
}
