package objstore

import (
	"errors"
	"reflect"
	"testing"
)

func stores(t *testing.T) map[string]Store {
	fsStore, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "fs": fsStore}
}

func TestPutGetDeleteList(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("tables/events/seg0", []byte("blob0")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("tables/events/seg1", []byte("blob1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("tables/other/seg0", []byte("x")); err != nil {
				t.Fatal(err)
			}
			data, err := s.Get("tables/events/seg0")
			if err != nil || string(data) != "blob0" {
				t.Fatalf("get: %q %v", data, err)
			}
			if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing get: %v", err)
			}
			ok, err := s.Exists("tables/events/seg1")
			if err != nil || !ok {
				t.Fatalf("exists: %v %v", ok, err)
			}
			keys, err := s.List("tables/events/")
			if err != nil || !reflect.DeepEqual(keys, []string{"tables/events/seg0", "tables/events/seg1"}) {
				t.Fatalf("list: %v %v", keys, err)
			}
			if err := s.Delete("tables/events/seg0"); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("tables/events/seg0"); err != nil {
				t.Fatalf("double delete: %v", err)
			}
			if ok, _ := s.Exists("tables/events/seg0"); ok {
				t.Fatal("exists after delete")
			}
			// Overwrite.
			if err := s.Put("tables/events/seg1", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			data, _ = s.Get("tables/events/seg1")
			if string(data) != "v2" {
				t.Fatalf("overwrite lost: %q", data)
			}
		})
	}
}

// TestMemHoldsOneCopy pins the sharing contract: Put copies what it is given,
// every Get hands out that one copy (so every replica loading a segment in
// this process serves the store's bytes), and replacing a key leaves the
// bytes earlier readers hold alone.
func TestMemHoldsOneCopy(t *testing.T) {
	m := NewMem()
	in := []byte("abc")
	_ = m.Put("k", in)
	in[0] = 'z'
	d1, _ := m.Get("k")
	d2, _ := m.Get("k")
	if string(d1) != "abc" {
		t.Fatalf("Put kept the caller's slice: %q", d1)
	}
	if &d1[0] != &d2[0] {
		t.Fatal("two Gets of one key returned two copies")
	}
	if cap(d1) != len(d1) {
		t.Fatalf("Get left %d bytes of capacity to append into", cap(d1)-len(d1))
	}
	_ = m.Put("k", []byte("xyz"))
	if d3, _ := m.Get("k"); string(d1) != "abc" || string(d3) != "xyz" {
		t.Fatalf("after replacing the key an earlier reader sees %q, a new one %q", d1, d3)
	}
}

func TestFSRejectsEscapingKeys(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"../evil", "/abs", "a/../../b"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
	}
}
