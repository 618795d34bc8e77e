package local

import (
	"testing"

	"github.com/rgml/rgml/internal/apgas/transport"
)

func TestZeroValueAndNoOps(t *testing.T) {
	var tr transport.Transport = New()
	if tr.Name() != "local" {
		t.Fatalf("Name() = %q", tr.Name())
	}
	if _, ok := tr.(transport.Executor); ok {
		t.Fatal("local backend implements transport.Executor; it has no data plane")
	}
	if err := tr.Start(4, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := tr.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if err := tr.Grow(3); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
