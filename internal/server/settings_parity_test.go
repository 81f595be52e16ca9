package server_test

import (
	"context"
	"database/sql"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pip"
	pipdriver "pip/driver"
	"pip/internal/core"
	"pip/internal/sampler"
	"pip/internal/server"
	pipsql "pip/internal/sql"
)

// TestSettingSurfacesAgree pushes every setting with every spelling of the
// matrix through the four surfaces that accept one — SET, POST /v1/session,
// an in-process DSN and a pip:// DSN — and requires of each the verdict and
// the resulting configuration of the settings table (whose own values
// internal/sampler's TestApplySettingMatrix pins). The surfaces differ in
// exactly one rule: SET seed = 0 is the literal seed, the open-time surfaces
// read seed=0 as the engine default.
func TestSettingSurfacesAgree(t *testing.T) {
	srv := server.New(server.Config{DB: pip.Open(pip.Options{})})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	addr := ts.Listener.Addr().String()

	norm := func(c sampler.Config) sampler.Config {
		c.Stats = nil // per-database collection point
		return c
	}
	type outcome struct {
		cfg sampler.Config
		ok  bool
	}
	surfaces := []struct {
		label string
		open  bool // an open-time surface
		apply func(t *testing.T, name, text string) outcome
	}{
		{"SET", false, func(t *testing.T, name, text string) outcome {
			db := core.NewDB(sampler.DefaultConfig())
			_, err := pipsql.Exec(db, "SET "+name+" = "+text)
			return outcome{norm(db.Config()), err == nil}
		}},
		{"POST /v1/session", true, func(t *testing.T, name, text string) outcome {
			// A raw body: json.Number cannot carry every text (it would
			// send the empty one as 0).
			resp, err := http.Post("http://"+addr+"/v1/session", "application/json",
				strings.NewReader(fmt.Sprintf(`{"settings":{%q:%s}}`, name, text)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("refusal has status %d, want 400", resp.StatusCode)
				}
				return outcome{}
			}
			var sr server.SessionResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
			cfg, ok := srv.SessionConfig(sr.ID)
			return outcome{norm(cfg), ok}
		}},
		{"in-process DSN", true, func(t *testing.T, name, text string) outcome {
			c, err := pipdriver.Default.OpenConnector(name + "=" + text)
			if err != nil {
				return outcome{}
			}
			return outcome{norm(c.(*pipdriver.Connector).DB().Core().Config()), true}
		}},
		{"pip:// DSN", true, func(t *testing.T, name, text string) outcome {
			before := map[string]bool{}
			for _, id := range srv.SessionIDs() {
				before[id] = true
			}
			db, err := sql.Open("pip", "pip://"+addr+"?"+name+"="+text)
			if err != nil {
				return outcome{} // refused at sql.Open, before any connection
			}
			defer db.Close()
			conn, err := db.Conn(context.Background())
			if err != nil {
				t.Fatalf("the DSN passed sql.Open but the server refused it: %v", err)
			}
			defer conn.Close()
			for _, id := range srv.SessionIDs() {
				if !before[id] {
					cfg, _ := srv.SessionConfig(id)
					return outcome{norm(cfg), true}
				}
			}
			t.Fatal("no session was opened")
			return outcome{}
		}},
	}

	texts := []string{"4", "0", "2", "2.0", "1e3", "1.5", "0.25", "-1", "",
		"abc", "9007199254740993", "9223372036854775808", "18446744073709551616", "1e30"}
	for _, name := range append(sampler.SettingNames(), "nonsense") {
		for _, text := range texts {
			for _, s := range surfaces {
				apply := sampler.ApplySetting
				if s.open {
					apply = sampler.ApplyOpenSetting
				}
				want := outcome{cfg: sampler.DefaultConfig()}
				want.ok = apply(&want.cfg, name, text) == nil
				got := s.apply(t, name, text)
				if got.ok != want.ok {
					t.Errorf("%s %s=%q: accepted=%v, the table says %v", s.label, name, text, got.ok, want.ok)
				} else if got.ok && got.cfg != want.cfg {
					t.Errorf("%s %s=%q: configuration %+v, want %+v", s.label, name, text, got.cfg, want.cfg)
				}
			}
		}
	}
}
