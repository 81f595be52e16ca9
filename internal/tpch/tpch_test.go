package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

func TestGenerateSizes(t *testing.T) {
	sc := Scale{Customers: 30, Parts: 40, Suppliers: 10, OrdersPerCustomer: 3}
	d := Generate(sc, 1)
	if len(d.Customers) != 30 || len(d.Parts) != 40 || len(d.Suppliers) != 10 {
		t.Fatalf("sizes %d/%d/%d", len(d.Customers), len(d.Parts), len(d.Suppliers))
	}
	if len(d.Orders) != 90 {
		t.Fatalf("orders %d", len(d.Orders))
	}
}

func TestKeysAreDense(t *testing.T) {
	d := Generate(SmallScale(), 2)
	for i, c := range d.Customers {
		if c.CustKey != i+1 {
			t.Fatalf("customer key %d at %d", c.CustKey, i)
		}
	}
	for i, p := range d.Parts {
		if p.PartKey != i+1 {
			t.Fatalf("part key %d at %d", p.PartKey, i)
		}
	}
}

func TestOrdersReferenceValidKeys(t *testing.T) {
	d := Generate(SmallScale(), 3)
	for _, o := range d.Orders {
		if o.CustKey < 1 || o.CustKey > len(d.Customers) {
			t.Fatalf("dangling cust key %d", o.CustKey)
		}
		if o.PartKey < 1 || o.PartKey > len(d.Parts) {
			t.Fatalf("dangling part key %d", o.PartKey)
		}
		if o.SuppKey < 1 || o.SuppKey > len(d.Suppliers) {
			t.Fatalf("dangling supp key %d", o.SuppKey)
		}
		if o.Year != 2008 && o.Year != 2009 {
			t.Fatalf("year %d", o.Year)
		}
	}
}

func TestModelParametersPositive(t *testing.T) {
	d := Generate(DefaultScale(), 4)
	for _, p := range d.Parts {
		if p.RetailPrice <= 0 || p.Quantity <= 0 || p.PopularityRate <= 0 || p.GrowthLambda <= 0 {
			t.Fatalf("bad part params %+v", p)
		}
	}
	for _, s := range d.Suppliers {
		if s.ManufMean <= 0 || s.ManufStd <= 0 || s.ShipMean <= 0 || s.ShipStd <= 0 || s.ProductionRate <= 0 {
			t.Fatalf("bad supplier params %+v", s)
		}
	}
}

func TestGrowthRateFloors(t *testing.T) {
	c := Customer{Purchases2YearsAgo: 10, PurchasesLastYear: 5}
	if g := c.GrowthRate(); g != 0.01 {
		t.Fatalf("shrinking customer growth %v, want floor 0.01", g)
	}
	c = Customer{Purchases2YearsAgo: 0, PurchasesLastYear: 5}
	if g := c.GrowthRate(); g != 0.1 {
		t.Fatalf("zero-history growth %v, want 0.1", g)
	}
	c = Customer{Purchases2YearsAgo: 10, PurchasesLastYear: 15}
	if g := c.GrowthRate(); g != 0.5 {
		t.Fatalf("growth %v, want 0.5", g)
	}
}

func TestNationsCycle(t *testing.T) {
	d := Generate(Scale{Customers: 1, Parts: 1, Suppliers: 12, OrdersPerCustomer: 1}, 5)
	japan := 0
	for _, s := range d.Suppliers {
		if s.Nation == "JAPAN" {
			japan++
		}
	}
	if japan != 2 {
		t.Fatalf("japan suppliers %d, want 2 of 12", japan)
	}
}

// frozenDefaultSeed1 is the SHA-256 of Generate(DefaultScale(), 1) under
// encodeData. Every benchmark workload loads this dataset, so a generator
// change that moved one bit of it would confound a before/after comparison
// of anything else; it must only change on purpose.
const frozenDefaultSeed1 = "45cc7d1c2934f286e6811df7d2ff5a9e80e188772430640883a46b7b61dfc7e4"

// TestGenerateIsFrozen pins the generated dataset bit for bit.
func TestGenerateIsFrozen(t *testing.T) {
	sum := sha256.Sum256(encodeData(Generate(DefaultScale(), 1)))
	if got := hex.EncodeToString(sum[:]); got != frozenDefaultSeed1 {
		t.Fatalf("Generate(DefaultScale(), 1) hashes to %s, want %s", got, frozenDefaultSeed1)
	}
}

// encodeData serializes every field of d in declaration order: integers as
// little-endian 64-bit words, floats as their IEEE bits, strings
// length-prefixed.
func encodeData(d *Data) []byte {
	var b []byte
	i := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	s := func(v string) { i(len(v)); b = append(b, v...) }
	i(d.Scale.Customers)
	i(d.Scale.Parts)
	i(d.Scale.Suppliers)
	i(d.Scale.OrdersPerCustomer)
	for _, c := range d.Customers {
		i(c.CustKey)
		s(c.Name)
		f(c.Purchases2YearsAgo)
		f(c.PurchasesLastYear)
		f(c.AvgOrderPrice)
		f(c.SatisfactionThreshold)
	}
	for _, p := range d.Parts {
		i(p.PartKey)
		s(p.Name)
		f(p.RetailPrice)
		f(p.Quantity)
		f(p.PopularityRate)
		f(p.GrowthLambda)
	}
	for _, sp := range d.Suppliers {
		i(sp.SuppKey)
		s(sp.Name)
		s(sp.Nation)
		f(sp.ManufMean)
		f(sp.ManufStd)
		f(sp.ShipMean)
		f(sp.ShipStd)
		f(sp.ProductionRate)
	}
	for _, o := range d.Orders {
		i(o.OrderKey)
		i(o.CustKey)
		i(o.PartKey)
		i(o.SuppKey)
		i(o.Year)
		f(o.Price)
		f(o.ManufDays)
		f(o.ShipDays)
	}
	return b
}
