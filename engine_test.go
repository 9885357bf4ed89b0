package sting

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSchemeBinariesLinkVM: every command and example that embeds the
// Scheme system also links the bytecode VM. Without it scheme.New falls
// back to the tree-walker, and `make vm-smoke` cannot tell, since both
// engines print the same bytes.
func TestSchemeBinariesLinkVM(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.Name}} {{.ImportPath}} {{join .Deps \" \"}}",
		"./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	embedding := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "main" {
			continue
		}
		deps := map[string]bool{}
		for _, d := range f[2:] {
			deps[d] = true
		}
		if !deps["repro/internal/scheme"] {
			continue
		}
		embedding++
		if !deps["repro/internal/vm"] {
			t.Errorf("%s embeds internal/scheme without linking internal/vm", f[1])
		}
	}
	if embedding < 2 {
		t.Fatalf("%d binaries embed internal/scheme, want at least cmd/sting and examples/schemedemo", embedding)
	}
}
