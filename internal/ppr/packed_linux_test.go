package ppr

import (
	"os"
	"strings"
	"testing"
)

// TestPackedGatesMatchCPUInfo holds the CPU gates to the kernel's own
// reading of the CPU: hasAVX2 must agree with the avx2 flag of
// /proc/cpuinfo and hasAVX512 with avx512f (the kernel drops a flag the
// operating system does not save the registers of, as XCR0 does). A
// wrong gate fails no other test — the drain silently takes a narrower
// body and the gain is gone — so this is the test that sees it.
func TestPackedGatesMatchCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break // the first processor's flags
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	for _, gate := range []struct {
		flag string
		got  bool
	}{{"avx2", hasAVX2()}, {"avx512f", hasAVX512()}} {
		if gate.got != flags[gate.flag] {
			t.Errorf("gate for %s reads %v, /proc/cpuinfo lists it: %v", gate.flag, gate.got, flags[gate.flag])
		}
	}
	t.Logf("widest pass: %d columns", wide)
}
