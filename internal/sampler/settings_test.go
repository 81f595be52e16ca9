package sampler

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestApplySettingMatrix pins the accept/reject verdict, the stored value
// and the wording of every kind of setting on the spellings the surfaces
// can hand over: exact integers, float spellings of integers (SET has always
// taken them and old write-ahead logs replay them), fractions, negatives,
// and the out-of-range integers whose float-to-int conversion is
// implementation-dependent in Go.
func TestApplySettingMatrix(t *testing.T) {
	get := map[string]func(Config) any{
		"seed":        func(c Config) any { return c.WorldSeed },
		"workers":     func(c Config) any { return c.Workers },
		"epsilon":     func(c Config) any { return c.Epsilon },
		"delta":       func(c Config) any { return c.Delta },
		"samples":     func(c Config) any { return c.FixedSamples },
		"max_samples": func(c Config) any { return c.MaxSamples },
		"min_samples": func(c Config) any { return c.MinSamples },
	}
	cases := []struct {
		name, text string
		want       any    // stored value on success
		wantErr    string // substring of the refusal otherwise
	}{
		{"workers", "4", 4, ""},
		{"workers", "0", 0, ""},
		{"workers", "2.0", 2, ""},
		{"workers", "-0", 0, ""},
		{"workers", "1.5", nil, "non-negative integer"},
		{"workers", "-1", nil, "non-negative integer"},
		{"samples", "1e3", 1000, ""},
		{"samples", "", nil, "non-negative integer"},
		{"samples", "abc", nil, "non-negative integer"},
		{"min_samples", "50", 50, ""},
		{"min_samples", "0", 0, ""},
		{"max_samples", "20000", 20000, ""},
		{"max_samples", "2", 2, ""},
		{"max_samples", "2.0", 2, ""},
		{"max_samples", "0", nil, "positive integer"},
		{"max_samples", "-1", nil, "positive integer"},
		{"max_samples", "1.5", nil, "positive integer"},
		{"max_samples", "9223372036854775807", 1<<63 - 1, ""},
		{"max_samples", "9223372036854775808", nil, "positive integer"}, // 2^63
		{"max_samples", "9223372036854775808.0", nil, "positive integer"},
		{"max_samples", "1e30", nil, "positive integer"},
		{"max_samples", "NaN", nil, "positive integer"},
		{"seed", "42", uint64(42), ""},
		{"seed", "0", uint64(0), ""},
		{"seed", "2.0", uint64(2), ""},
		{"seed", "1e3", uint64(1000), ""},
		{"seed", "9007199254740993", uint64(1<<53 + 1), ""}, // 2^53+1: exact, not rounded through a float64
		{"seed", "9223372036854775808", uint64(1 << 63), ""},
		{"seed", "18446744073709551615", uint64(1<<64 - 1), ""},
		{"seed", "18446744073709551616", nil, "below 2^64"}, // 2^64
		{"seed", "1e30", nil, "below 2^64"},
		{"seed", "-1", nil, "non-negative integer"},
		{"seed", "1.5", nil, "non-negative integer"},
		{"seed", "", nil, "non-negative integer"},
		{"seed", "abc", nil, "non-negative integer"},
		{"epsilon", "0.01", 0.01, ""},
		{"delta", "1e-1", 0.1, ""},
		{"epsilon", "0", nil, "(0, 1)"},
		{"epsilon", "1", nil, "(0, 1)"},
		{"epsilon", "2", nil, "(0, 1)"},
		{"delta", "-1", nil, "(0, 1)"},
		{"delta", "NaN", nil, "(0, 1)"},
		{"delta", "", nil, "(0, 1)"},
		{"delta", "abc", nil, "(0, 1)"},
		{"nonsense", "1", nil, "unknown setting"},
		{"vectorize", "1", nil, "unknown setting"}, // retired; only SET still takes it
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		err := ApplySetting(&cfg, tc.name, tc.text)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("%s=%q: error %v, want one naming the setting and %q", tc.name, tc.text, err, tc.wantErr)
			}
			if cfg != DefaultConfig() {
				t.Errorf("%s=%q: refused value changed the configuration: %+v", tc.name, tc.text, cfg)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s=%q: %v", tc.name, tc.text, err)
			continue
		}
		if got := get[tc.name](cfg); got != tc.want {
			t.Errorf("%s=%q stored %v (%T), want %v (%T)", tc.name, tc.text, got, got, tc.want, tc.want)
		}
	}
	if len(get) != len(SettingNames()) {
		t.Errorf("the matrix reads %d settings, the table has %v", len(get), SettingNames())
	}
	for _, name := range SettingNames() {
		if get[name] == nil || SettingHelp(name) == "" {
			t.Errorf("setting %s: not covered above, or has no help text", name)
		}
	}
}

// TestOpenSettingSeedZero: the one rule that separates the open-time
// surfaces from SET — a zero seed is the engine default there.
func TestOpenSettingSeedZero(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 7
	if err := ApplyOpenSetting(&cfg, "seed", "0"); err != nil || cfg.WorldSeed != DefaultConfig().WorldSeed {
		t.Fatalf("open-time seed=0 gave seed %d, %v; want the default %d", cfg.WorldSeed, err, DefaultConfig().WorldSeed)
	}
	if err := ApplySetting(&cfg, "seed", "0"); err != nil || cfg.WorldSeed != 0 {
		t.Fatalf("SET-style seed=0 gave seed %d, %v; want the literal 0", cfg.WorldSeed, err)
	}
	if err := ApplyOpenSetting(&cfg, "workers", "3"); err != nil || cfg.WorldSeed != 0 || cfg.Workers != 3 {
		t.Fatalf("an open-time setting other than seed touched the seed: %+v, %v", cfg, err)
	}
}

// TestSettingsDocs keeps the documentation on the table: docs/SQL.md's
// settings reference is exactly one row per setting carrying its help text,
// in table order, and the DSN grammars in docs/OPERATIONS.md and the driver
// package comment name exactly the table's settings.
func TestSettingsDocs(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	_, table, ok := strings.Cut(read("docs/SQL.md"), "| Setting | Meaning and bound |\n|---|---|\n")
	if !ok {
		t.Fatal("docs/SQL.md has no settings table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var rows, want []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(\\w+)` \\| (.*) \\|$").FindAllStringSubmatch(table, -1) {
		rows = append(rows, m[1]+": "+m[2])
	}
	for _, name := range SettingNames() {
		want = append(want, name+": "+SettingHelp(name))
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("docs/SQL.md settings table:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
	grammar := "seed=N&workers=N&epsilon=F&delta=F&samples=N&max_samples=N&min_samples=N"
	var keys []string
	for _, kv := range strings.Split(grammar, "&") {
		keys = append(keys, kv[:strings.Index(kv, "=")])
	}
	if !reflect.DeepEqual(keys, SettingNames()) {
		t.Fatalf("the documented DSN grammar names %v, the table %v", keys, SettingNames())
	}
	for _, path := range []string{"docs/OPERATIONS.md", "driver/driver.go"} {
		if doc := read(path); strings.Count(doc, "]"+grammar) != 1 || strings.Count(doc, "?"+grammar+"]") != 1 {
			t.Errorf("%s: want the in-process DSN grammar \"[name=X&]%s\" and the remote one \"[?%s]\", once each", path, grammar, grammar)
		}
	}
}
