package cliutil

import (
	"flag"
	"strconv"
)

// Uint32 defines a uint32 flag on fs. A value above 4,294,967,295 fails the
// parse (the command's usage exit) instead of wrapping as a cast from a
// wider flag would.
func Uint32(fs *flag.FlagSet, name string, value uint32, usage string) *uint32 {
	p := &value
	fs.Var((*uint32Value)(p), name, usage)
	return p
}

type uint32Value uint32

func (v *uint32Value) Set(s string) error {
	n, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return err.(*strconv.NumError).Err // "value out of range", as flag's own
	}
	*v = uint32Value(n)
	return nil
}

func (v *uint32Value) String() string { return strconv.FormatUint(uint64(*v), 10) }
