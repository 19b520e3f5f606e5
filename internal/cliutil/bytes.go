package cliutil

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes reads a human-friendly byte size: "0", "4096", "64KiB",
// "32MiB", "1GiB" (and KB/MB/GB as the same power-of-two units). Shared by
// every command that takes a byte-budget flag (wetd -budget, wetrun
// -budget).
func ParseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	mult := uint64(1)
	for _, suf := range []struct {
		s string
		m uint64
	}{{"GiB", 1 << 30}, {"GB", 1 << 30}, {"MiB", 1 << 20}, {"MB", 1 << 20}, {"KiB", 1 << 10}, {"KB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(t, suf.s) {
			t, mult = strings.TrimSuffix(t, suf.s), suf.m
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}
