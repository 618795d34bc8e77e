package kernel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// The registry is process-global and Register panics on duplicates, so
// all test kernels register once at init — exactly the discipline
// production kernels follow (and the reason these tests survive
// -count=2, which reruns them in one process).
func init() {
	Register("kerneltest.a", func(ex *Exec, task *Task) (*Result, error) { return &Result{}, nil })
	Register("kerneltest.read", func(ex *Exec, task *Task) (*Result, error) {
		e, err := ex.Ref(task.Refs[0])
		if err != nil {
			return nil, err
		}
		return &Result{Payload: e.Bytes()}, nil
	})
	Register("kerneltest.panic", func(ex *Exec, task *Task) (*Result, error) { panic("boom") })
	Register("kerneltest.fail", func(ex *Exec, task *Task) (*Result, error) { return nil, errors.New("no luck") })
}

func TestRegistry(t *testing.T) {
	if _, ok := Lookup("kerneltest.a"); !ok {
		t.Fatal("registered kernel not found")
	}
	if _, ok := Lookup("kerneltest.nope"); ok {
		t.Fatal("unregistered kernel found")
	}
	found := false
	for _, n := range Names() {
		if n == "kerneltest.a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing kerneltest.a", Names())
	}
	for _, bad := range []string{"", "kerneltest.a"} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", bad)
				}
			}()
			Register(bad, func(ex *Exec, task *Task) (*Result, error) { return nil, nil })
		}()
	}
}

// holds reports whether s has (handle, key) at exactly ver.
func holds(s *Store, handle uint64, key int64, ver uint64) bool {
	e, ok := s.Get(handle, key)
	return ok && e.Ver() == ver
}

func TestStore(t *testing.T) {
	s := NewStore()
	s.Put(1, 0, 1, []byte("v1"))
	s.Put(1, 1, 1, []byte("other key"))
	s.Put(2, 0, 5, []byte("other handle"))
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
	e, ok := s.Get(1, 0)
	if !ok || string(e.Bytes()) != "v1" || e.Ver() != 1 {
		t.Fatalf("Get(1,0) = %v, %v", e, ok)
	}
	if !holds(s, 1, 0, 1) || holds(s, 1, 0, 2) || holds(s, 3, 0, 1) {
		t.Fatal("Holds version/handle discrimination broken")
	}
	// A new version replaces in place.
	s.Put(1, 0, 2, []byte("v2"))
	if e, _ := s.Get(1, 0); string(e.Bytes()) != "v2" || e.Ver() != 2 {
		t.Fatalf("after re-Put, Get(1,0) = %q ver %d", e.Bytes(), e.Ver())
	}
	if s.Len() != 3 {
		t.Fatalf("re-Put changed Len to %d", s.Len())
	}
}

func TestEntryObjDecodesOnce(t *testing.T) {
	s := NewStore()
	s.Put(1, 0, 1, []byte("abc"))
	e, _ := s.Get(1, 0)
	var calls atomic.Int32
	decode := func(data []byte) (any, error) {
		calls.Add(1)
		return strings.ToUpper(string(data)), nil
	}
	for i := 0; i < 3; i++ {
		v, err := e.Obj(decode)
		if err != nil || v.(string) != "ABC" {
			t.Fatalf("Obj = %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("decode ran %d times, want 1 (memoized)", calls.Load())
	}
	wantErr := errors.New("bad bytes")
	if _, err := e.Obj(func([]byte) (any, error) { return nil, wantErr }); err != nil {
		t.Fatalf("memoized Obj re-decoded and failed: %v", err)
	}
}

func TestRunAppliesPutsAndResolvesRefs(t *testing.T) {
	ex := &Exec{Place: 3, Store: NewStore()}
	res := Run(ex, &Task{
		Name: "kerneltest.read",
		Refs: []Ref{{Handle: 9, Key: 2, Ver: 4}},
		Puts: []Blob{{Handle: 9, Key: 2, Ver: 4, Data: []byte("shipped")}},
	})
	if res.Err != "" || string(res.Payload) != "shipped" {
		t.Fatalf("Run = %+v", res)
	}
	// Version mismatch: the store now holds ver 4, a ref to ver 5 must
	// fail rather than serve stale bytes.
	res = Run(ex, &Task{Name: "kerneltest.read", Refs: []Ref{{Handle: 9, Key: 2, Ver: 5}}})
	if res.Err == "" {
		t.Fatal("stale-version ref resolved")
	}
}

func TestRunFoldsFailures(t *testing.T) {
	res := Run(&Exec{Store: NewStore()}, &Task{Name: "kerneltest.ghost"})
	if res.Err == "" || !strings.Contains(res.Err, "ghost") {
		t.Fatalf("unknown kernel Err = %q", res.Err)
	}
	res = Run(&Exec{Store: NewStore()}, &Task{Name: "kerneltest.panic"})
	if res.Err == "" || !strings.Contains(res.Err, "boom") {
		t.Fatalf("panicking kernel Err = %q", res.Err)
	}
	res = Run(&Exec{Store: NewStore()}, &Task{Name: "kerneltest.fail"})
	if res.Err != "no luck" {
		t.Fatalf("failing kernel Err = %q", res.Err)
	}
}

func TestBuiltinPut(t *testing.T) {
	ex := &Exec{Store: NewStore()}
	res := Run(ex, &Task{Name: PutName, Puts: []Blob{{Handle: 1, Key: 0, Ver: 2, Data: []byte("x")}}})
	if res.Err != "" {
		t.Fatalf("put kernel Err = %q", res.Err)
	}
	if !holds(ex.Store, 1, 0, 2) {
		t.Fatal("put kernel did not install the blob")
	}
}
