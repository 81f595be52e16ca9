package sampler

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The session settings — the values of Config a user may tune per handle —
// are defined once, here. Every surface that accepts one (SQL SET, POST
// /v1/session, in-process and pip:// DSNs, the pipd flags) hands the name
// and the decimal text of the value to ApplySetting, or to ApplyOpenSetting
// while a handle is being opened, and adds only its own error prefix.

// setting is one row of the table: the name users type, a one-line meaning
// stating the bound (pipd -h and docs/SQL.md print it), and the Config field
// it sets, whose type is its kind: *uint64 a seed, *int an integer of min or
// more, *float64 a number in the open interval (0, 1).
type setting struct {
	name, help string
	min        uint64
	field      func(*Config) any
}

// settings is ordered as the documentation lists it.
var settings = []setting{
	{"seed", "world seed, an integer in [0, 2^64); equal seeds give bit-identical results", 0, func(c *Config) any { return &c.WorldSeed }},
	{"workers", "parallel sampler goroutines, a non-negative integer (0 = one per CPU)", 0, func(c *Config) any { return &c.Workers }},
	{"epsilon", "confidence parameter in (0, 1): the error bound holds with confidence 1-epsilon", 0, func(c *Config) any { return &c.Epsilon }},
	{"delta", "relative-error parameter in (0, 1)", 0, func(c *Config) any { return &c.Delta }},
	{"samples", "fixed sample count, a non-negative integer (0 = adaptive stopping)", 0, func(c *Config) any { return &c.FixedSamples }},
	{"max_samples", "adaptive sampling cap, a positive integer", 1, func(c *Config) any { return &c.MaxSamples }},
	{"min_samples", "adaptive sampling floor, a non-negative integer", 0, func(c *Config) any { return &c.MinSamples }},
}

// SettingNames returns the setting names in table order.
func SettingNames() []string {
	names := make([]string, len(settings))
	for i, s := range settings {
		names[i] = s.name
	}
	return names
}

// SettingHelp returns a setting's one-line meaning, "" for an unknown name.
func SettingHelp(name string) string {
	for _, s := range settings {
		if s.name == name {
			return s.help
		}
	}
	return ""
}

// ApplySetting parses text, a decimal number, as the value of the named
// setting and stores it in cfg; on error cfg is unchanged. Integer settings
// also accept a float spelling of an integer (2.0, 1e3): SET has always
// taken those and SET statements are replayed from write-ahead logs, so
// refusing one would stop recovery of an existing data directory.
func ApplySetting(cfg *Config, name, text string) error {
	for _, s := range settings {
		if s.name != name {
			continue
		}
		switch p := s.field(cfg).(type) {
		case *uint64:
			n, ok := natural(text, 64)
			if !ok {
				return fmt.Errorf("%s must be a non-negative integer below 2^64, got %q", name, text)
			}
			*p = n
		case *int:
			n, ok := natural(text, strconv.IntSize-1)
			if !ok || n < s.min {
				want := "non-negative"
				if s.min > 0 {
					want = "positive"
				}
				return fmt.Errorf("%s must be a %s integer, got %q", name, want, text)
			}
			*p = int(n)
		case *float64:
			f, err := strconv.ParseFloat(text, 64)
			if err != nil || !(f > 0 && f < 1) { // written so that NaN is refused
				return fmt.Errorf("%s must lie in (0, 1), got %q", name, text)
			}
			*p = f
		}
		return nil
	}
	return fmt.Errorf("unknown setting %q (have %s)", name, strings.Join(SettingNames(), ", "))
}

// ApplyOpenSetting is ApplySetting for the surfaces that configure a handle
// as it is opened (DSNs, session creation, pipd flags). They differ from SET
// in one rule: a zero seed selects the engine's default seed, as the zero
// pip.Options.Seed does, while SET seed = 0 is the literal seed 0.
func ApplyOpenSetting(cfg *Config, name, text string) error {
	err := ApplySetting(cfg, name, text)
	if err == nil && name == "seed" && cfg.WorldSeed == 0 {
		cfg.WorldSeed = DefaultConfig().WorldSeed
	}
	return err
}

// natural reads text as an integer in [0, 2^bits): exactly when it is
// written as one, otherwise (2.0, 1e3) as a float with an integral value.
// The float is range-checked before it is converted: converting one out of
// range is implementation-dependent in Go, and a primary and a replica on
// different hardware must replay SET seed = 18446744073709551616 alike.
func natural(text string, bits int) (uint64, bool) {
	if n, err := strconv.ParseUint(text, 10, 64); err == nil {
		return n, n>>bits == 0
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil || f != math.Trunc(f) || f < 0 || f >= math.Ldexp(1, bits) {
		return 0, false
	}
	return uint64(f), true
}
