// Package tpch generates the synthetic TPC-H-shaped data the paper's
// evaluation queries run over (§VI: "a 1 GB database generated by the TPC-H
// benchmark").
//
// Substitution note (see DESIGN.md): the queries Q1–Q5 touch only a few
// columns of customer/orders/lineitem/part/supplier — join keys, past
// purchase volumes, manufacturing/shipping durations, prices. This
// generator reproduces those shapes deterministically (seeded) at a
// configurable scale, which preserves the experiments' statistical
// structure while keeping runs laptop-sized. Absolute wall-clock numbers
// are not comparable to the paper's Postgres-on-Xeon setup; relative
// PIP-vs-Sample-First behaviour is.
package tpch

import (
	"math"

	"pip/internal/prng"
)

// Scale parameterizes dataset size. Scale 1 is the default benchmark size;
// row counts grow linearly.
type Scale struct {
	Customers int
	Parts     int
	Suppliers int
	// OrdersPerCustomer is the mean number of past orders per customer.
	OrdersPerCustomer int
}

// DefaultScale returns the size used by the benchmark harness.
func DefaultScale() Scale {
	return Scale{Customers: 500, Parts: 1000, Suppliers: 100, OrdersPerCustomer: 8}
}

// SmallScale returns a fast test-sized dataset.
func SmallScale() Scale {
	return Scale{Customers: 50, Parts: 100, Suppliers: 20, OrdersPerCustomer: 4}
}

// Customer is one customer row with the aggregates Q1/Q3 need precomputed
// (the deterministic query phase the paper pre-materializes).
type Customer struct {
	CustKey int
	Name    string
	// Purchases2YearsAgo and PurchasesLastYear drive the Poisson growth
	// model of Q1.
	Purchases2YearsAgo float64
	PurchasesLastYear  float64
	// AvgOrderPrice is the average historical order price.
	AvgOrderPrice float64
	// SatisfactionThreshold is the delivery time beyond which the
	// customer defects (Q3); calibrated so ~10% of customers are at risk.
	SatisfactionThreshold float64
}

// GrowthRate returns the relative purchase increase that parametrizes the
// Poisson prediction of next year's additional orders.
func (c Customer) GrowthRate() float64 {
	if c.Purchases2YearsAgo <= 0 {
		return 0.1
	}
	g := c.PurchasesLastYear/c.Purchases2YearsAgo - 1
	if g < 0.01 {
		g = 0.01
	}
	return g
}

// Part is one part row.
type Part struct {
	PartKey     int
	Name        string
	RetailPrice float64
	// Quantity is the historical sales volume (drives Q4's prediction).
	Quantity float64
	// PopularityRate is the exponential rate of the popularity multiplier
	// model in Q4 (mean popularity = 1/PopularityRate).
	PopularityRate float64
	// GrowthLambda parametrizes the Poisson sales-increase model.
	GrowthLambda float64
}

// Supplier is one supplier row with the delivery-time statistics Q2
// extracts from past orders.
type Supplier struct {
	SuppKey int
	Name    string
	Nation  string
	// ManufMean/ManufStd and ShipMean/ShipStd are the Normal parameters
	// for manufacturing and shipping durations, estimated from history.
	ManufMean, ManufStd float64
	ShipMean, ShipStd   float64
	// ProductionRate is the exponential rate of next year's production
	// capacity model (Q5).
	ProductionRate float64
}

// Order is one historical order (drives the deterministic aggregation
// phases).
type Order struct {
	OrderKey int
	CustKey  int
	PartKey  int
	SuppKey  int
	Year     int
	Price    float64
	// ManufDays and ShipDays are realized historical durations.
	ManufDays, ShipDays float64
}

// Data is the full generated dataset.
type Data struct {
	Scale     Scale
	Customers []Customer
	Parts     []Part
	Suppliers []Supplier
	Orders    []Order
}

var nations = []string{"JAPAN", "GERMANY", "FRANCE", "BRAZIL", "CANADA", "KENYA"}

// Generate builds a dataset deterministically from the seed.
func Generate(sc Scale, seed uint64) *Data {
	d := &Data{Scale: sc}
	r := prng.NewKeyed(seed, 0x7063)

	d.Suppliers = make([]Supplier, sc.Suppliers)
	for i := range d.Suppliers {
		d.Suppliers[i] = Supplier{
			SuppKey:        i + 1,
			Name:           "Supplier#" + itoa(i+1),
			Nation:         nations[i%len(nations)],
			ManufMean:      3 + 10*r.Float64(),
			ManufStd:       0.5 + 2*r.Float64(),
			ShipMean:       2 + 8*r.Float64(),
			ShipStd:        0.5 + 2*r.Float64(),
			ProductionRate: 1 / (5000 + 20000*r.Float64()),
		}
	}

	d.Parts = make([]Part, sc.Parts)
	for i := range d.Parts {
		d.Parts[i] = Part{
			PartKey:        i + 1,
			Name:           "Part#" + itoa(i+1),
			RetailPrice:    10 + 990*r.Float64(),
			Quantity:       10 + 200*r.Float64(),
			PopularityRate: 0.5 + 1.5*r.Float64(),
			GrowthLambda:   0.5 + 4*r.Float64(),
		}
	}

	d.Customers = make([]Customer, sc.Customers)
	for i := range d.Customers {
		base := 5 + 40*r.Float64()
		growth := 0.8 + 0.6*r.Float64() // 0.8x .. 1.4x year-over-year
		d.Customers[i] = Customer{
			CustKey:            i + 1,
			Name:               "Customer#" + itoa(i+1),
			Purchases2YearsAgo: base,
			PurchasesLastYear:  base * growth,
			AvgOrderPrice:      50 + 450*r.Float64(),
			// Thresholds concentrated so that roughly 10% of customers
			// sit below their supplier's typical delivery time.
			SatisfactionThreshold: 8 + 20*r.Float64(),
		}
	}

	nOrders := sc.Customers * sc.OrdersPerCustomer
	d.Orders = make([]Order, 0, nOrders)
	for i := 0; i < nOrders; i++ {
		cust := d.Customers[r.Intn(sc.Customers)]
		part := d.Parts[r.Intn(sc.Parts)]
		supp := d.Suppliers[r.Intn(sc.Suppliers)]
		year := 2008 + r.Intn(2)
		price := part.RetailPrice * (0.9 + 0.2*r.Float64())
		manuf, ship := boxMuller(r)
		d.Orders = append(d.Orders, Order{
			OrderKey:  i + 1,
			CustKey:   cust.CustKey,
			PartKey:   part.PartKey,
			SuppKey:   supp.SuppKey,
			Year:      year,
			Price:     price,
			ManufDays: supp.ManufMean + supp.ManufStd*manuf,
			ShipDays:  supp.ShipMean + supp.ShipStd*ship,
		})
	}
	return d
}

// boxMuller draws two independent standard normals by the Box–Muller
// transform. The generator keeps its own normal so that the dataset every
// benchmark loads does not move when prng's draws do (TestGenerateIsFrozen).
func boxMuller(r *prng.Rand) (float64, float64) {
	radius := math.Sqrt(-2 * math.Log(r.Float64Open()))
	theta := 2 * math.Pi * r.Float64()
	return radius * math.Cos(theta), radius * math.Sin(theta)
}

// JapaneseSuppliers returns the suppliers from JAPAN (the Q2 filter).
func (d *Data) JapaneseSuppliers() []Supplier {
	var out []Supplier
	for _, s := range d.Suppliers {
		if s.Nation == "JAPAN" {
			out = append(out, s)
		}
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
