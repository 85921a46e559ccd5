package urwatch

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// fresh returns a copy of s with its own backing array.
func fresh(s string) string { return string([]byte(s)) }

func sameInstance(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// TestInternerCanonicalAndCapped: equal strings come back as one instance;
// the empty string, over-long strings and, in a full table, new strings come
// back as passed and are not stored, while a string already interned stays
// canonical; and goroutines interning overlapping sets agree on one instance
// per string.
func TestInternerCanonicalAndCapped(t *testing.T) {
	in := newInterner()
	first := fresh("ns1.example.")
	if got := in.Intern(first); !sameInstance(got, first) {
		t.Fatal("a new string does not come back as itself")
	}
	for i := 0; i < 3; i++ {
		if got := in.Intern(fresh("ns1.example.")); !sameInstance(got, first) {
			t.Fatalf("repeat %d: an equal string with its own bytes is not the canonical instance", i)
		}
	}
	if n := len(in.m); n != 1 {
		t.Errorf("%d entries after one distinct string interned four times, want 1", n)
	}

	long := strings.Repeat("x", internMaxLen+1)
	for _, s := range []string{"", long} {
		if got := in.Intern(s); !sameInstance(got, s) || got != s {
			t.Errorf("Intern(%d bytes) did not come back as passed", len(s))
		}
	}
	if n := len(in.m); n != 1 {
		t.Errorf("%d entries after the empty and an over-long string, want 1", n)
	}

	// Fill the table to its cap, then intern a new string.
	for i := 0; len(in.m) < internCap; i++ {
		k := strconv.Itoa(i)
		in.m[k] = k
	}
	late := fresh("late.example.")
	if got := in.Intern(late); !sameInstance(got, late) {
		t.Error("in a full table a new string does not come back as itself")
	}
	if _, ok := in.m[late]; ok || len(in.m) != internCap {
		t.Errorf("in a full table a new string was stored (%d entries, cap %d)", len(in.m), internCap)
	}
	if got := in.Intern(fresh(late)); sameInstance(got, late) {
		t.Error("in a full table a second copy came back as the first: it was stored")
	}
	if got := in.Intern(fresh("ns1.example.")); !sameInstance(got, first) {
		t.Error("in a full table an interned string is no longer canonical")
	}

	const workers, keys = 8, 500
	in = newInterner()
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]string, keys)
			for i := 0; i < keys; i++ {
				k := (i*7 + w*31) % keys // each worker in its own order
				got[w][k] = in.Intern(fresh(fmt.Sprintf("host%d.example.", k)))
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for w := 1; w < workers; w++ {
			if !sameInstance(got[w][k], got[0][k]) {
				t.Fatalf("string %d: workers 0 and %d got different instances", k, w)
			}
		}
	}
	if n := len(in.m); n != keys {
		t.Errorf("%d entries after %d workers interned %d strings, want %d", n, workers, keys, keys)
	}
}
