// Package birdext synthesizes the BIRD-Ext benchmark (paper §3.1): a
// BIRD-style multi-table database with 150 read tasks plus 150 write tasks
// (50 each INSERT/UPDATE/DELETE), adding operation semantics, user
// privileges, and transaction management on top of NL2SQL-style queries.
//
// The original BIRD data is not redistributable, so schemas and rows are
// generated deterministically from a seed. Each task carries gold SQL plus
// the hallucination variants the LLM simulator draws from, and a
// verification query for scoring; see internal/task.
package birdext

import (
	"fmt"
	"math/rand"
	"strings"

	"bridgescope/internal/sqldb"
)

// Counties, categories and the other text domains deliberately include
// values that differ from their natural-language phrasing, so that
// value-dependent predicates genuinely require exemplar retrieval.
var (
	counties   = []string{"Alameda", "Fresno", "Los Angeles", "Orange", "Sacramento"}
	districts  = []string{"north", "south", "east", "west"}
	segments   = []string{"retail", "corporate", "premium"}
	acctStatus = []string{"active", "frozen", "closed"}
	loanStatus = []string{"approved", "pending", "defaulted"}
	categories = []string{"women", "men", "kids", "shoes", "accessories"}
	reasons    = []string{"damaged", "wrong size", "changed mind"}
)

// Row counts for the generated data.
const (
	nSchools  = 60
	nClients  = 80
	nAccounts = 120
	nLoans    = 90
	nItems    = 50
	nSales    = 200
	nRefunds  = 60
)

// BuildEngine creates the benchmark database for a seed by executing the
// fixture's DDL and INSERT statements; it is the single definition of the
// fixture's contents. Task runs reset the fixture with Suite.BuildEngine,
// which loads a copy from an image of this engine instead of re-executing
// the SQL.
func BuildEngine(seed int64) *sqldb.Engine {
	e := sqldb.NewEngine("bird_ext")
	s := e.NewSession("root")
	rng := rand.New(rand.NewSource(seed))

	ddl := []string{
		`CREATE TABLE schools (
			id INT PRIMARY KEY, name TEXT NOT NULL, county TEXT,
			charter INT, enrollment INT, free_meal_rate REAL)`,
		`CREATE TABLE scores (
			id INT PRIMARY KEY, school_id INT REFERENCES schools(id),
			year INT, avg_reading REAL, avg_math REAL, test_takers INT)`,
		`CREATE TABLE clients (
			id INT PRIMARY KEY, name TEXT NOT NULL, district TEXT, segment TEXT)`,
		`CREATE TABLE accounts (
			id INT PRIMARY KEY, client_id INT REFERENCES clients(id),
			balance REAL, status TEXT, opened_year INT)`,
		`CREATE TABLE loans (
			id INT PRIMARY KEY, account_id INT REFERENCES accounts(id),
			amount REAL, duration INT, status TEXT)`,
		`CREATE TABLE items (
			id INT PRIMARY KEY, name TEXT NOT NULL, category TEXT, price REAL)`,
		`CREATE TABLE sales (
			order_id INT PRIMARY KEY, item_id INT REFERENCES items(id),
			qty INT NOT NULL, amount REAL, day INT)`,
		`CREATE TABLE refunds (
			refund_id INT PRIMARY KEY, order_id INT, amount REAL, day INT, reason TEXT)`,
		// Tables for the "irrelevant user" role: no task touches them.
		`CREATE TABLE audit_log (id INT PRIMARY KEY, actor TEXT, action TEXT, day INT)`,
		`CREATE TABLE notes (id INT PRIMARY KEY, body TEXT, day INT)`,
	}
	for _, d := range ddl {
		s.MustExec(d)
	}

	// schools
	var rows []string
	for i := 1; i <= nSchools; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'School %03d', '%s', %d, %d, %.3f)",
			i, i, counties[rng.Intn(len(counties))], rng.Intn(2),
			200+rng.Intn(2800), 0.05+rng.Float64()*0.8))
	}
	s.MustExec("INSERT INTO schools (id, name, county, charter, enrollment, free_meal_rate) VALUES " + strings.Join(rows, ", "))

	// scores: three years per school.
	rows = rows[:0]
	id := 0
	for sc := 1; sc <= nSchools; sc++ {
		for _, year := range []int{2021, 2022, 2023} {
			id++
			rows = append(rows, fmt.Sprintf("(%d, %d, %d, %.1f, %.1f, %d)",
				id, sc, year, 420+rng.Float64()*180, 400+rng.Float64()*200, 20+rng.Intn(400)))
		}
	}
	s.MustExec("INSERT INTO scores (id, school_id, year, avg_reading, avg_math, test_takers) VALUES " + strings.Join(rows, ", "))

	// clients
	rows = rows[:0]
	for i := 1; i <= nClients; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'Client %03d', '%s', '%s')",
			i, i, districts[rng.Intn(len(districts))], segments[rng.Intn(len(segments))]))
	}
	s.MustExec("INSERT INTO clients (id, name, district, segment) VALUES " + strings.Join(rows, ", "))

	// accounts
	rows = rows[:0]
	for i := 1; i <= nAccounts; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %.2f, '%s', %d)",
			i, 1+rng.Intn(nClients), rng.Float64()*50000, acctStatus[rng.Intn(len(acctStatus))], 2015+rng.Intn(9)))
	}
	s.MustExec("INSERT INTO accounts (id, client_id, balance, status, opened_year) VALUES " + strings.Join(rows, ", "))

	// loans
	rows = rows[:0]
	for i := 1; i <= nLoans; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %.2f, %d, '%s')",
			i, 1+rng.Intn(nAccounts), 1000+rng.Float64()*99000, 12*(1+rng.Intn(5)), loanStatus[rng.Intn(len(loanStatus))]))
	}
	s.MustExec("INSERT INTO loans (id, account_id, amount, duration, status) VALUES " + strings.Join(rows, ", "))

	// items
	rows = rows[:0]
	for i := 1; i <= nItems; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'Item %03d', '%s', %.2f)",
			i, i, categories[rng.Intn(len(categories))], 3+rng.Float64()*120))
	}
	s.MustExec("INSERT INTO items (id, name, category, price) VALUES " + strings.Join(rows, ", "))

	// sales
	rows = rows[:0]
	for i := 1; i <= nSales; i++ {
		qty := 1 + rng.Intn(5)
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %.2f, %d)",
			1000+i, 1+rng.Intn(nItems), qty, float64(qty)*(3+rng.Float64()*120), 1+rng.Intn(30)))
	}
	s.MustExec("INSERT INTO sales (order_id, item_id, qty, amount, day) VALUES " + strings.Join(rows, ", "))

	// refunds
	rows = rows[:0]
	for i := 1; i <= nRefunds; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %.2f, %d, '%s')",
			i, 1000+1+rng.Intn(nSales), rng.Float64()*150, 1+rng.Intn(30), reasons[rng.Intn(len(reasons))]))
	}
	s.MustExec("INSERT INTO refunds (refund_id, order_id, amount, day, reason) VALUES " + strings.Join(rows, ", "))

	// audit_log / notes (irrelevant-role tables)
	s.MustExec("INSERT INTO audit_log (id, actor, action, day) VALUES (1, 'system', 'startup', 1), (2, 'admin', 'grant', 2)")
	s.MustExec("INSERT INTO notes (id, body, day) VALUES (1, 'quarterly review pending', 3), (2, 'backup verified', 4)")

	return e
}

// TaskTables lists every table the benchmark's tasks may touch; the
// irrelevant role is granted privileges only outside this set.
var TaskTables = []string{"schools", "scores", "clients", "accounts", "loans", "items", "sales", "refunds"}

// Role is one of the simulated production roles of §3.3.
type Role string

// The three roles.
const (
	RoleAdmin      Role = "admin"      // full query + manipulation privileges
	RoleNormal     Role = "normal"     // read-only
	RoleIrrelevant Role = "irrelevant" // privileges only on task-unrelated tables
)

// Roles lists all roles.
var Roles = []Role{RoleAdmin, RoleNormal, RoleIrrelevant}

// SetupRole grants the role's privileges on a fresh engine and returns the
// database user name to connect as.
func SetupRole(e *sqldb.Engine, r Role) string {
	g := e.Grants()
	switch r {
	case RoleAdmin:
		g.GrantAll("bird_admin", "*")
		return "bird_admin"
	case RoleNormal:
		g.Grant("bird_normal", sqldb.ActionSelect, "*")
		return "bird_normal"
	case RoleIrrelevant:
		g.GrantAll("bird_other", "audit_log")
		g.GrantAll("bird_other", "notes")
		return "bird_other"
	}
	panic(fmt.Sprintf("unknown role %q", r))
}

// Feasible reports whether a role can perform a task kind on the benchmark
// tables.
func Feasible(r Role, write bool) bool {
	switch r {
	case RoleAdmin:
		return true
	case RoleNormal:
		return !write
	default:
		return false
	}
}
