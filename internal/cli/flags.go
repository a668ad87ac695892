package cli

import (
	"errors"
	"flag"
	"strconv"
)

// errNegative is the parse error of a negative value for a flag that
// defines none.
var errNegative = errors.New("must not be negative")

// NonNegInt defines an int flag whose negative values are parse
// errors: the flag package then reports the flag by name and Run exits
// 2, as for any malformed command line.
func NonNegInt(fs *flag.FlagSet, name string, value int, usage string) *int {
	p := &value
	fs.Var((*nonNegInt)(p), name, usage)
	return p
}

// NonNegFloat is NonNegInt for a float64 flag.
func NonNegFloat(fs *flag.FlagSet, name string, value float64, usage string) *float64 {
	p := &value
	fs.Var((*nonNegFloat)(p), name, usage)
	return p
}

type nonNegInt int

func (v *nonNegInt) String() string { return strconv.Itoa(int(*v)) }

func (v *nonNegInt) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	switch {
	case err != nil:
		return err
	case n < 0:
		return errNegative
	}
	*v = nonNegInt(n)
	return nil
}

type nonNegFloat float64

func (v *nonNegFloat) String() string { return strconv.FormatFloat(float64(*v), 'g', -1, 64) }

func (v *nonNegFloat) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil:
		return err
	case !(f >= 0):
		return errNegative
	}
	*v = nonNegFloat(f)
	return nil
}
