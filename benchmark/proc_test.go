package main

import "testing"

func TestParseStatCPUTicks(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (emigre (srv) x) S 1 4242 4242 0 -1 4194560 2094 0 0 0 1234 567 0 0 20 0 9 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPUTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234+567 {
		t.Errorf("ticks = %d, want utime+stime = %d", got, 1234+567)
	}
	for _, bad := range []string{"", "1 no-paren S 1", "1 (x) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0"} {
		if _, err := parseStatCPUTicks(bad); err == nil {
			t.Errorf("parseStatCPUTicks(%q) succeeded", bad)
		}
	}
}

func TestParseStatusVmHWM(t *testing.T) {
	status := "Name:\temigre-server\nVmPeak:\t 1300000 kB\nVmHWM:\t  601234 kB\nVmRSS:\t  500000 kB\n"
	got, err := parseStatusVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 601234 {
		t.Errorf("VmHWM = %d kB, want 601234", got)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\n"} {
		if _, err := parseStatusVmHWM(bad); err == nil {
			t.Errorf("parseStatusVmHWM(%q) succeeded", bad)
		}
	}
}
