package main

import (
	"os"
	"testing"
)

func TestParseProcStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 1234 567 0 0 20 0 5 0 100 0 0"
	got, err := parseProcStatCPU(line)
	if err != nil || got != 1234+567 {
		t.Errorf("parseProcStatCPU = %d, %v; want %d", got, err, 1234+567)
	}
	if _, err := parseProcStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat line parsed")
	}
	if _, err := procCPUTicks(os.Getpid()); err != nil {
		t.Errorf("own /proc stat: %v", err)
	}
}

func TestStealTicksReadable(t *testing.T) {
	if _, err := stealTicks(); err != nil {
		t.Fatal(err)
	}
}
