package birdext

import (
	"fmt"
	"strings"
	"sync"

	"bridgescope/internal/sqldb"
	"bridgescope/internal/task"
)

// Suite is a generated BIRD-Ext benchmark instance: 150 read and 150 write
// tasks over the schema in BuildEngine.
type Suite struct {
	Seed       int64
	Tasks      []*task.Task
	ReadTasks  []*task.Task
	WriteTasks []*task.Task

	// img is the pristine fixture for Seed in Engine.Image form, encoded
	// on the first BuildEngine call.
	imgOnce sync.Once
	img     []byte
}

// The benchmark's size, matching the paper.
const (
	NumReadTasks  = 150
	NumWriteTasks = 150
)

var (
	suiteMu    sync.Mutex
	suiteCache = map[int64]*Suite{}
	// templates holds the seed-independent task definitions, built once
	// under suiteMu and shared read-only by every suite: each suite's tasks
	// are shallow copies that add only the per-seed VerifySQL and Expected.
	templates []*task.Task
)

// GenerateSuite builds (and caches) the deterministic benchmark for a seed,
// including each task's gold result / post-state expectation.
func GenerateSuite(seed int64) *Suite {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if s, ok := suiteCache[seed]; ok {
		return s
	}
	if templates == nil {
		templates = buildTasks()
	}
	s := &Suite{Seed: seed, Tasks: make([]*task.Task, len(templates))}
	copies := make([]task.Task, len(templates))
	for i, tmpl := range templates {
		copies[i] = *tmpl
		t := &copies[i]
		s.Tasks[i] = t
		if t.Kind == task.Read {
			s.ReadTasks = append(s.ReadTasks, t)
		} else {
			s.WriteTasks = append(s.WriteTasks, t)
		}
	}
	computeExpectations(s)
	suiteCache[seed] = s
	return s
}

// BuildEngine returns a fresh populated database for one task run. The
// first call builds the fixture with BuildEngine(s.Seed) and keeps its
// image; every call loads a new engine from that image, so writes and
// grants on one engine never reach another.
func (s *Suite) BuildEngine() *sqldb.Engine {
	s.imgOnce.Do(func() { s.img = BuildEngine(s.Seed).Image() })
	return mustLoad(s.img)
}

func mustLoad(img []byte) *sqldb.Engine {
	e, err := sqldb.LoadImage("bird_ext", img)
	if err != nil {
		panic(fmt.Sprintf("birdext: load fixture image: %v", err))
	}
	return e
}

// computeExpectations executes every task's gold SQL against a pristine
// database and records the verification baseline. Write tasks each run on
// an engine loaded from the pristine engine's image; the image is not kept.
func computeExpectations(s *Suite) {
	pristine := BuildEngine(s.Seed)
	img := pristine.Image()
	// Read tasks never mutate: share the pristine engine.
	readSess := pristine.NewSession("root")
	for _, t := range s.ReadTasks {
		r := readSess.MustExec(t.GoldSQL[0])
		t.VerifySQL = t.GoldSQL[0]
		t.Expected = r.Text()
	}
	for _, t := range s.WriteTasks {
		sess := mustLoad(img).NewSession("root")
		for _, q := range t.GoldSQL {
			sess.MustExec(q)
		}
		r := sess.MustExec(t.VerifySQL)
		t.Expected = r.Text()
	}
}

// valuePair is a stored value plus the plausible-but-wrong variant an LLM
// hallucinates before retrieving exemplars.
type valuePair struct {
	table, column string
	stored, wrong string
	nl            string // how the task text phrases it
}

var valuePairs = []valuePair{
	{"items", "category", "women", "women's wear", "women's wear"},
	{"items", "category", "men", "menswear", "menswear"},
	{"items", "category", "kids", "kidswear", "kidswear"},
	{"items", "category", "shoes", "shoe products", "shoe products"},
	{"items", "category", "accessories", "accessory items", "accessory items"},
	{"refunds", "reason", "wrong size", "wrong sizing", "wrong sizing"},
	{"refunds", "reason", "changed mind", "changed their mind", "customers who changed their mind"},
	{"accounts", "status", "frozen", "frozen status", "frozen-status"},
	{"loans", "status", "defaulted", "in default", "loans in default"},
	{"clients", "segment", "premium", "premium tier", "premium-tier"},
}

// corruptions maps real column names to the misspellings a model invents
// when it has not seen the schema.
var corruptions = map[string]string{
	"enrollment":     "enrollments",
	"free_meal_rate": "meal_rate",
	"avg_math":       "math_avg",
	"avg_reading":    "reading_avg",
	"test_takers":    "num_takers",
	"category":       "item_category",
	"price":          "unit_price",
	"amount":         "total_amount",
	"balance":        "acct_balance",
	"district":       "region",
	"county":         "county_name",
	"qty":            "quantity",
	"reason":         "refund_reason",
	"opened_year":    "open_year",
	"duration":       "term_months",
}

// corruptIdents rewrites a statement with one hallucinated identifier.
func corruptIdents(sql string) string {
	for real, fake := range corruptions {
		if idx := wordIndex(sql, real); idx >= 0 {
			return sql[:idx] + fake + sql[idx+len(real):]
		}
	}
	// Last resort: mangle the first table name.
	for _, tbl := range TaskTables {
		if idx := wordIndex(sql, tbl); idx >= 0 {
			return sql[:idx] + tbl + "_tbl" + sql[idx+len(tbl):]
		}
	}
	return sql
}

// wordIndex finds needle in s at word boundaries.
func wordIndex(s, needle string) int {
	lo := strings.ToLower(s)
	from := 0
	for {
		i := strings.Index(lo[from:], needle)
		if i < 0 {
			return -1
		}
		i += from
		beforeOK := i == 0 || !isWordChar(lo[i-1])
		after := i + len(needle)
		afterOK := after >= len(lo) || !isWordChar(lo[after])
		if beforeOK && afterOK {
			return i
		}
		from = i + 1
	}
}

func isWordChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// semanticWrong derives a statement that runs but computes the wrong thing:
// a flipped comparison or an off-by-one literal — the residual SQL mistakes
// of Fig 5b.
func semanticWrong(sql string) string {
	if i := strings.Index(sql, " > "); i >= 0 {
		return sql[:i] + " < " + sql[i+3:]
	}
	if i := strings.Index(sql, " < "); i >= 0 {
		return sql[:i] + " > " + sql[i+3:]
	}
	if i := strings.Index(sql, " >= "); i >= 0 {
		return sql[:i] + " <= " + sql[i+4:]
	}
	if i := strings.Index(sql, "2023"); i >= 0 {
		return sql[:i] + "2022" + sql[i+4:]
	}
	if i := strings.Index(sql, "2021"); i >= 0 {
		return sql[:i] + "2022" + sql[i+4:]
	}
	if i := strings.Index(sql, " DESC"); i >= 0 {
		return sql[:i] + " ASC" + sql[i+5:]
	}
	return ""
}

func corruptAll(sqls []string) []string {
	out := make([]string, len(sqls))
	for i, s := range sqls {
		out[i] = corruptIdents(s)
	}
	return out
}

func semanticAll(sqls []string) []string {
	changed := false
	out := make([]string, len(sqls))
	for i, s := range sqls {
		w := semanticWrong(s)
		if w != "" {
			out[i] = w
			changed = true
		} else {
			out[i] = s
		}
	}
	if !changed {
		return nil
	}
	return out
}

// newReadTask assembles a read task with all variants.
func newReadTask(id int, nl, gold string, tables []string) *task.Task {
	t := &task.Task{
		ID:      fmt.Sprintf("read-%03d", id),
		NL:      nl,
		Kind:    task.Read,
		Tables:  tables,
		GoldSQL: []string{gold},
	}
	t.CorruptIdentSQL = corruptAll(t.GoldSQL)
	t.SemanticWrongSQL = semanticAll(t.GoldSQL)
	return t
}

// withValue marks a task value-dependent and derives its wrong-value
// variant by substituting the stored value with the hallucinated one.
func withValue(t *task.Task, vp valuePair) *task.Task {
	t.NeedsValue = true
	t.ValueTable = vp.table
	t.ValueColumn = vp.column
	t.ValueKey = vp.wrong
	escaped := strings.ReplaceAll(vp.wrong, "'", "''")
	wrong := make([]string, len(t.GoldSQL))
	for i, s := range t.GoldSQL {
		wrong[i] = strings.ReplaceAll(s, "'"+vp.stored+"'", "'"+escaped+"'")
	}
	t.WrongValueSQL = wrong
	return t
}

func newWriteTask(id int, kind task.Kind, nl string, gold []string, tables []string, verify string) *task.Task {
	t := &task.Task{
		ID:        fmt.Sprintf("%s-%03d", kind, id),
		NL:        nl,
		Kind:      kind,
		Tables:    tables,
		GoldSQL:   gold,
		VerifySQL: verify,
	}
	t.CorruptIdentSQL = corruptAll(t.GoldSQL)
	t.SemanticWrongSQL = semanticAll(t.GoldSQL)
	return t
}

func buildTasks() []*task.Task {
	var tasks []*task.Task
	tasks = append(tasks, buildReadTasks()...)
	tasks = append(tasks, buildWriteTasks()...)
	return tasks
}

func buildReadTasks() []*task.Task {
	var out []*task.Task
	id := 0
	add := func(t *task.Task) {
		out = append(out, t)
	}
	next := func() int { id++; return id }

	// Per-county school statistics.
	for _, c := range counties {
		add(newReadTask(next(), fmt.Sprintf("How many schools are in %s county?", c),
			fmt.Sprintf("SELECT COUNT(*) FROM schools WHERE county = '%s'", c), []string{"schools"}))
		add(newReadTask(next(), fmt.Sprintf("What is the average enrollment of schools in %s county?", c),
			fmt.Sprintf("SELECT AVG(enrollment) FROM schools WHERE county = '%s'", c), []string{"schools"}))
		add(newReadTask(next(), fmt.Sprintf("List the five largest schools in %s county by enrollment.", c),
			fmt.Sprintf("SELECT name, enrollment FROM schools WHERE county = '%s' ORDER BY enrollment DESC LIMIT 5", c), []string{"schools"}))
	}
	// Charter-school analytics.
	add(newReadTask(next(), "How many charter schools are there per county?",
		"SELECT county, COUNT(*) FROM schools WHERE charter = 1 GROUP BY county ORDER BY county", []string{"schools"}))
	add(newReadTask(next(), "Which counties have more than 8 charter schools?",
		"SELECT county, COUNT(*) AS n FROM schools WHERE charter = 1 GROUP BY county HAVING COUNT(*) > 8 ORDER BY county", []string{"schools"}))
	add(newReadTask(next(), "What fraction-relevant counts: schools with free meal rate above 0.5 per county?",
		"SELECT county, COUNT(*) FROM schools WHERE free_meal_rate > 0.5 GROUP BY county ORDER BY county", []string{"schools"}))

	// Scores analytics (join + aggregate).
	for _, year := range []int{2021, 2022, 2023} {
		add(newReadTask(next(), fmt.Sprintf("What was the average math score across schools in %d?", year),
			fmt.Sprintf("SELECT AVG(avg_math) FROM scores WHERE year = %d", year), []string{"scores"}))
		add(newReadTask(next(), fmt.Sprintf("List the top 10 schools by average math score in %d.", year),
			fmt.Sprintf("SELECT schools.name, scores.avg_math FROM scores JOIN schools ON scores.school_id = schools.id WHERE scores.year = %d ORDER BY scores.avg_math DESC LIMIT 10", year),
			[]string{"scores", "schools"}))
		add(newReadTask(next(), fmt.Sprintf("How many score records in %d had more than 200 test takers?", year),
			fmt.Sprintf("SELECT COUNT(*) FROM scores WHERE year = %d AND test_takers > 200", year), []string{"scores"}))
	}
	for _, thresh := range []int{500, 520, 540} {
		add(newReadTask(next(), fmt.Sprintf("Which schools scored above %d in math in 2023?", thresh),
			fmt.Sprintf("SELECT schools.name FROM scores JOIN schools ON scores.school_id = schools.id WHERE scores.year = 2023 AND scores.avg_math > %d ORDER BY schools.name", thresh),
			[]string{"scores", "schools"}))
	}
	add(newReadTask(next(), "Compare average reading and math scores per year.",
		"SELECT year, AVG(avg_reading), AVG(avg_math) FROM scores GROUP BY year ORDER BY year", []string{"scores"}))
	add(newReadTask(next(), "Which county's schools had the best average math score in 2023?",
		"SELECT schools.county, AVG(scores.avg_math) AS m FROM scores JOIN schools ON scores.school_id = schools.id WHERE scores.year = 2023 GROUP BY schools.county ORDER BY m DESC LIMIT 1",
		[]string{"scores", "schools"}))

	// Finance analytics.
	for _, d := range districts {
		add(newReadTask(next(), fmt.Sprintf("How many clients are in the %s district?", d),
			fmt.Sprintf("SELECT COUNT(*) FROM clients WHERE district = '%s'", d), []string{"clients"}))
		add(newReadTask(next(), fmt.Sprintf("What is the total account balance held by clients of the %s district?", d),
			fmt.Sprintf("SELECT SUM(accounts.balance) FROM accounts JOIN clients ON accounts.client_id = clients.id WHERE clients.district = '%s'", d),
			[]string{"accounts", "clients"}))
	}
	for _, st := range acctStatus {
		add(newReadTask(next(), fmt.Sprintf("What is the average balance of %s accounts?", st),
			fmt.Sprintf("SELECT AVG(balance) FROM accounts WHERE status = '%s'", st), []string{"accounts"}))
	}
	for _, y := range []int{2016, 2018, 2020, 2022} {
		add(newReadTask(next(), fmt.Sprintf("How many accounts were opened in %d or later?", y),
			fmt.Sprintf("SELECT COUNT(*) FROM accounts WHERE opened_year >= %d", y), []string{"accounts"}))
	}
	add(newReadTask(next(), "What is the total approved loan amount?",
		"SELECT SUM(amount) FROM loans WHERE status = 'approved'", []string{"loans"}))
	add(newReadTask(next(), "How many loans of each status are there?",
		"SELECT status, COUNT(*) FROM loans GROUP BY status ORDER BY status", []string{"loans"}))
	for _, dur := range []int{12, 24, 36, 48, 60} {
		add(newReadTask(next(), fmt.Sprintf("What is the average amount of %d-month loans?", dur),
			fmt.Sprintf("SELECT AVG(amount) FROM loans WHERE duration = %d", dur), []string{"loans"}))
	}
	add(newReadTask(next(), "Which clients hold accounts with balances above 40000?",
		"SELECT DISTINCT clients.name FROM clients JOIN accounts ON accounts.client_id = clients.id WHERE accounts.balance > 40000 ORDER BY clients.name",
		[]string{"clients", "accounts"}))
	add(newReadTask(next(), "List the 10 largest loans with their account ids.",
		"SELECT id, account_id, amount FROM loans ORDER BY amount DESC LIMIT 10", []string{"loans"}))

	// Retail analytics with value-dependent predicates (exemplar cases).
	for _, vp := range valuePairs[:5] { // the five item categories
		add(withValue(newReadTask(next(), fmt.Sprintf("What is the total revenue from %s?", vp.nl),
			fmt.Sprintf("SELECT SUM(sales.amount) FROM sales JOIN items ON sales.item_id = items.id WHERE items.category = '%s'", vp.stored),
			[]string{"sales", "items"}), vp))
		add(withValue(newReadTask(next(), fmt.Sprintf("How many distinct items of %s were sold?", vp.nl),
			fmt.Sprintf("SELECT COUNT(DISTINCT sales.item_id) FROM sales JOIN items ON sales.item_id = items.id WHERE items.category = '%s'", vp.stored),
			[]string{"sales", "items"}), vp))
		add(withValue(newReadTask(next(), fmt.Sprintf("What is the average price of %s items?", vp.nl),
			fmt.Sprintf("SELECT AVG(price) FROM items WHERE category = '%s'", vp.stored),
			[]string{"items"}), vp))
	}
	for _, vp := range []valuePair{valuePairs[5], valuePairs[6]} { // refund reasons
		add(withValue(newReadTask(next(), fmt.Sprintf("How much was refunded for %s?", vp.nl),
			fmt.Sprintf("SELECT SUM(amount) FROM refunds WHERE reason = '%s'", vp.stored),
			[]string{"refunds"}), vp))
		add(withValue(newReadTask(next(), fmt.Sprintf("How many refunds were recorded for %s?", vp.nl),
			fmt.Sprintf("SELECT COUNT(*) FROM refunds WHERE reason = '%s'", vp.stored),
			[]string{"refunds"}), vp))
	}
	add(withValue(newReadTask(next(), "What is the combined balance of frozen-status accounts per client district?",
		"SELECT clients.district, SUM(accounts.balance) FROM accounts JOIN clients ON accounts.client_id = clients.id WHERE accounts.status = 'frozen' GROUP BY clients.district ORDER BY clients.district",
		[]string{"accounts", "clients"}), valuePairs[7]))
	add(withValue(newReadTask(next(), "What is the total amount of loans in default?",
		"SELECT SUM(amount) FROM loans WHERE status = 'defaulted'", []string{"loans"}), valuePairs[8]))
	add(withValue(newReadTask(next(), "How many premium-tier clients are there per district?",
		"SELECT district, COUNT(*) FROM clients WHERE segment = 'premium' GROUP BY district ORDER BY district",
		[]string{"clients"}), valuePairs[9]))

	// Daily retail series.
	for _, day := range []int{5, 10, 15, 20, 25} {
		add(newReadTask(next(), fmt.Sprintf("What were total sales up to day %d?", day),
			fmt.Sprintf("SELECT SUM(amount) FROM sales WHERE day <= %d", day), []string{"sales"}))
		add(newReadTask(next(), fmt.Sprintf("How many orders were placed after day %d?", day),
			fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE day > %d", day), []string{"sales"}))
	}
	add(newReadTask(next(), "Show daily sales totals in the first week.",
		"SELECT day, SUM(amount) FROM sales WHERE day <= 7 GROUP BY day ORDER BY day", []string{"sales"}))
	add(newReadTask(next(), "Which items sold more than 10 units in total?",
		"SELECT items.name, SUM(sales.qty) AS units FROM sales JOIN items ON sales.item_id = items.id GROUP BY items.name HAVING SUM(sales.qty) > 10 ORDER BY units DESC",
		[]string{"sales", "items"}))
	add(newReadTask(next(), "What are the 5 best-selling items by revenue?",
		"SELECT items.name, SUM(sales.amount) AS rev FROM sales JOIN items ON sales.item_id = items.id GROUP BY items.name ORDER BY rev DESC LIMIT 5",
		[]string{"sales", "items"}))
	add(newReadTask(next(), "How many sales had quantity of at least 3?",
		"SELECT COUNT(*) FROM sales WHERE qty >= 3", []string{"sales"}))
	add(newReadTask(next(), "What is the average refund amount?",
		"SELECT AVG(amount) FROM refunds", []string{"refunds"}))
	add(newReadTask(next(), "Count refunds per day for the first 10 days.",
		"SELECT day, COUNT(*) FROM refunds WHERE day <= 10 GROUP BY day ORDER BY day", []string{"refunds"}))

	// Mixed-difficulty filler to reach exactly 150, sweeping thresholds.
	fillSpecs := []struct {
		nlFmt, sqlFmt string
		tables        []string
		vals          []int
	}{
		{"How many schools have enrollment above %d?",
			"SELECT COUNT(*) FROM schools WHERE enrollment > %d", []string{"schools"},
			[]int{400, 800, 1200, 1600, 2000, 2400}},
		{"How many schools have a free meal rate above 0.%d?",
			"SELECT COUNT(*) FROM schools WHERE free_meal_rate > 0.%d", []string{"schools"},
			[]int{2, 3, 4, 6, 7}},
		{"How many accounts hold a balance above %d?",
			"SELECT COUNT(*) FROM accounts WHERE balance > %d", []string{"accounts"},
			[]int{10000, 20000, 30000, 40000}},
		{"How many loans exceed %d in amount?",
			"SELECT COUNT(*) FROM loans WHERE amount > %d", []string{"loans"},
			[]int{25000, 50000, 75000}},
		{"How many items cost more than %d?",
			"SELECT COUNT(*) FROM items WHERE price > %d", []string{"items"},
			[]int{20, 40, 60, 80, 100}},
		{"What is the total sales revenue on day %d?",
			"SELECT SUM(amount) FROM sales WHERE day = %d", []string{"sales"},
			[]int{1, 3, 7, 9, 11, 13, 17, 19, 21, 23, 27, 29}},
		{"How many score records had fewer than %d test takers?",
			"SELECT COUNT(*) FROM scores WHERE test_takers < %d", []string{"scores"},
			[]int{50, 100, 150, 250, 350}},
		{"How many orders were placed on day %d?",
			"SELECT COUNT(*) FROM sales WHERE day = %d", []string{"sales"},
			[]int{2, 4, 6, 8, 10, 12, 14, 16, 18, 22}},
		{"What is the average order amount for orders of quantity %d?",
			"SELECT AVG(amount) FROM sales WHERE qty = %d", []string{"sales"},
			[]int{1, 2, 3, 4, 5}},
		{"How many refunds exceeded %d?",
			"SELECT COUNT(*) FROM refunds WHERE amount > %d", []string{"refunds"},
			[]int{25, 50, 75, 100, 125}},
		{"How many clients have an id below %d?",
			"SELECT COUNT(*) FROM clients WHERE id < %d", []string{"clients"},
			[]int{20, 40, 60}},
	}
	for _, spec := range fillSpecs {
		for _, v := range spec.vals {
			if len(out) >= NumReadTasks {
				break
			}
			add(newReadTask(next(), fmt.Sprintf(spec.nlFmt, v),
				fmt.Sprintf(spec.sqlFmt, v), spec.tables))
		}
	}
	if len(out) < NumReadTasks {
		panic(fmt.Sprintf("birdext: only %d read tasks generated", len(out)))
	}
	return out[:NumReadTasks]
}

func buildWriteTasks() []*task.Task {
	var out []*task.Task
	counts := map[task.Kind]int{}
	add := func(t *task.Task) { out = append(out, t) }
	next := func(k task.Kind) int { counts[k]++; return counts[k] }

	// --- 50 INSERT tasks ---
	// Single-row sales inserts.
	for i := 0; i < 15; i++ {
		oid := 5000 + i
		item := 1 + (i*7)%nItems
		qty := 1 + i%4
		amount := float64(qty) * 19.5
		add(newWriteTask(next(task.Insert), task.Insert,
			fmt.Sprintf("Record a new order %d: item %d, quantity %d, amount %.2f, on day 30.", oid, item, qty, amount),
			[]string{fmt.Sprintf("INSERT INTO sales (order_id, item_id, qty, amount, day) VALUES (%d, %d, %d, %.2f, 30)", oid, item, qty, amount)},
			[]string{"sales"},
			fmt.Sprintf("SELECT order_id, item_id, qty, amount FROM sales WHERE order_id = %d", oid)))
	}
	// Composite: new item + its first sale (transactional).
	for i := 0; i < 10; i++ {
		iid := 500 + i
		oid := 6000 + i
		cat := categories[i%len(categories)]
		add(newWriteTask(next(task.Insert), task.Insert,
			fmt.Sprintf("Add new product 'Launch %02d' (category %s, price 59.90) and record its first order %d of 2 units for 119.80 on day 30. Both records must be stored atomically.", i, cat, oid),
			[]string{
				fmt.Sprintf("INSERT INTO items (id, name, category, price) VALUES (%d, 'Launch %02d', '%s', 59.90)", iid, i, cat),
				fmt.Sprintf("INSERT INTO sales (order_id, item_id, qty, amount, day) VALUES (%d, %d, 2, 119.80, 30)", oid, iid),
			},
			[]string{"items", "sales"},
			fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE order_id = %d AND item_id = %d", oid, iid)))
	}
	// Refund inserts.
	for i := 0; i < 10; i++ {
		rid := 500 + i
		oid := 1001 + i*3
		add(newWriteTask(next(task.Insert), task.Insert,
			fmt.Sprintf("Log refund %d of 25.50 against order %d on day 30, reason 'damaged'.", rid, oid),
			[]string{fmt.Sprintf("INSERT INTO refunds (refund_id, order_id, amount, day, reason) VALUES (%d, %d, 25.50, 30, 'damaged')", rid, oid)},
			[]string{"refunds"},
			fmt.Sprintf("SELECT refund_id, amount FROM refunds WHERE refund_id = %d", rid)))
	}
	// New schools.
	for i := 0; i < 5; i++ {
		sid := 200 + i
		county := counties[i%len(counties)]
		add(newWriteTask(next(task.Insert), task.Insert,
			fmt.Sprintf("Register new school 'New Campus %d' in %s county with 350 students, non-charter, free meal rate 0.4.", sid, county),
			[]string{fmt.Sprintf("INSERT INTO schools (id, name, county, charter, enrollment, free_meal_rate) VALUES (%d, 'New Campus %d', '%s', 0, 350, 0.4)", sid, sid, county)},
			[]string{"schools"},
			fmt.Sprintf("SELECT name, county, enrollment FROM schools WHERE id = %d", sid)))
	}
	// Composite: new client + account (transactional).
	for i := 0; i < 10; i++ {
		cid := 300 + i
		aid := 400 + i
		d := districts[i%len(districts)]
		add(newWriteTask(next(task.Insert), task.Insert,
			fmt.Sprintf("Onboard client 'Newco %02d' in the %s district with an opening account of 5000, atomically.", i, d),
			[]string{
				fmt.Sprintf("INSERT INTO clients (id, name, district, segment) VALUES (%d, 'Newco %02d', '%s', 'retail')", cid, i, d),
				fmt.Sprintf("INSERT INTO accounts (id, client_id, balance, status, opened_year) VALUES (%d, %d, 5000, 'active', 2024)", aid, cid),
			},
			[]string{"clients", "accounts"},
			fmt.Sprintf("SELECT COUNT(*) FROM accounts WHERE id = %d AND client_id = %d", aid, cid)))
	}

	// --- 50 UPDATE tasks ---
	for i, vp := range valuePairs[:5] {
		pct := 5 + i
		add(withValue(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Raise prices of %s by %d percent.", vp.nl, pct),
			[]string{fmt.Sprintf("UPDATE items SET price = price * 1.0%d WHERE category = '%s'", pct, vp.stored)},
			[]string{"items"},
			fmt.Sprintf("SELECT ROUND(SUM(price), 2) FROM items WHERE category = '%s'", vp.stored)), vp))
		add(withValue(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Apply a 10 percent discount to all %s items.", vp.nl),
			[]string{fmt.Sprintf("UPDATE items SET price = price * 0.9 WHERE category = '%s'", vp.stored)},
			[]string{"items"},
			fmt.Sprintf("SELECT ROUND(SUM(price), 2) FROM items WHERE category = '%s'", vp.stored)), vp))
	}
	for _, bal := range []int{1000, 2000, 3000, 4000, 5000} {
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Reactivate frozen accounts holding less than %d.", bal),
			[]string{fmt.Sprintf("UPDATE accounts SET status = 'active' WHERE status = 'frozen' AND balance < %d", bal)},
			[]string{"accounts"},
			"SELECT status, COUNT(*) FROM accounts GROUP BY status ORDER BY status"))
	}
	for i, c := range counties {
		bump := 10 * (i + 1)
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Increase recorded enrollment by %d for every school in %s county.", bump, c),
			[]string{fmt.Sprintf("UPDATE schools SET enrollment = enrollment + %d WHERE county = '%s'", bump, c)},
			[]string{"schools"},
			fmt.Sprintf("SELECT SUM(enrollment) FROM schools WHERE county = '%s'", c)))
	}
	for _, amt := range []int{10000, 20000, 30000, 40000, 50000} {
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Approve all pending loans below %d.", amt),
			[]string{fmt.Sprintf("UPDATE loans SET status = 'approved' WHERE status = 'pending' AND amount < %d", amt)},
			[]string{"loans"},
			"SELECT status, COUNT(*) FROM loans GROUP BY status ORDER BY status"))
	}
	for _, y := range []int{2021, 2022, 2023} {
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Correct the %d records: add 5 test takers to every score row of that year.", y),
			[]string{fmt.Sprintf("UPDATE scores SET test_takers = test_takers + 5 WHERE year = %d", y)},
			[]string{"scores"},
			fmt.Sprintf("SELECT SUM(test_takers) FROM scores WHERE year = %d", y)))
	}
	for _, d := range []int{2, 4, 6, 8, 10} {
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Apply a 5 percent service credit to refunds on day %d.", d),
			[]string{fmt.Sprintf("UPDATE refunds SET amount = amount * 1.05 WHERE day = %d", d)},
			[]string{"refunds"},
			"SELECT ROUND(SUM(amount), 2) FROM refunds"))
	}
	for _, r := range []int{3, 4, 5, 6, 7} {
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Round up: set free meal rate to 0.%d for schools currently below 0.%d.", r, r),
			[]string{fmt.Sprintf("UPDATE schools SET free_meal_rate = 0.%d WHERE free_meal_rate < 0.%d", r, r)},
			[]string{"schools"},
			"SELECT ROUND(SUM(free_meal_rate), 3) FROM schools"))
	}
	// Composite updates: move sales between days + log-style touch (transactional).
	for i := 0; i < 12; i++ {
		fromDay := 1 + i
		add(newWriteTask(next(task.Update), task.Update,
			fmt.Sprintf("Shift all day-%d orders to day %d and mark their amounts up 1 percent, atomically.", fromDay, fromDay+1),
			[]string{
				fmt.Sprintf("UPDATE sales SET amount = amount * 1.01 WHERE day = %d", fromDay),
				fmt.Sprintf("UPDATE sales SET day = %d WHERE day = %d", fromDay+1, fromDay),
			},
			[]string{"sales"},
			fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE day = %d", fromDay)))
	}

	// --- 50 DELETE tasks ---
	for _, d := range []int{3, 5, 7, 9, 11, 13, 15, 17, 19, 21} {
		add(newWriteTask(next(task.Delete), task.Delete,
			fmt.Sprintf("Purge refunds recorded before day %d.", d),
			[]string{fmt.Sprintf("DELETE FROM refunds WHERE day < %d", d)},
			[]string{"refunds"},
			"SELECT COUNT(*) FROM refunds"))
	}
	for _, d := range []int{20, 22, 24, 26, 28} {
		add(newWriteTask(next(task.Delete), task.Delete,
			fmt.Sprintf("Remove orders placed after day %d.", d),
			[]string{fmt.Sprintf("DELETE FROM sales WHERE day > %d", d)},
			[]string{"sales"},
			"SELECT COUNT(*) FROM sales"))
	}
	for _, sid := range []int{10, 20, 30, 40, 50} {
		add(newWriteTask(next(task.Delete), task.Delete,
			fmt.Sprintf("Drop 2021 score records for schools with id up to %d.", sid),
			[]string{fmt.Sprintf("DELETE FROM scores WHERE year = 2021 AND school_id <= %d", sid)},
			[]string{"scores"},
			"SELECT COUNT(*) FROM scores WHERE year = 2021"))
	}
	add(withValue(newWriteTask(next(task.Delete), task.Delete,
		"Clear out all loans in default.",
		[]string{"DELETE FROM loans WHERE status = 'defaulted'"},
		[]string{"loans"},
		"SELECT COUNT(*) FROM loans"), valuePairs[8]))
	for _, amt := range []int{80000, 85000, 90000, 95000} {
		add(newWriteTask(next(task.Delete), task.Delete,
			fmt.Sprintf("Delete defaulted loans above %d.", amt),
			[]string{fmt.Sprintf("DELETE FROM loans WHERE status = 'defaulted' AND amount > %d", amt)},
			[]string{"loans"},
			"SELECT COUNT(*) FROM loans"))
	}
	for _, q := range []int{4, 5} {
		add(newWriteTask(next(task.Delete), task.Delete,
			fmt.Sprintf("Delete bulk orders with quantity of %d or more placed after day 25.", q),
			[]string{fmt.Sprintf("DELETE FROM sales WHERE qty >= %d AND day > 25", q)},
			[]string{"sales"},
			"SELECT COUNT(*) FROM sales"))
	}
	add(newWriteTask(next(task.Delete), task.Delete,
		"Remove items that have never been sold.",
		[]string{"DELETE FROM items WHERE id NOT IN (SELECT item_id FROM sales)"},
		[]string{"items", "sales"},
		"SELECT COUNT(*) FROM items"))
	add(newWriteTask(next(task.Delete), task.Delete,
		"Close out: delete closed accounts that have no loans.",
		[]string{"DELETE FROM accounts WHERE status = 'closed' AND id NOT IN (SELECT account_id FROM loans)"},
		[]string{"accounts", "loans"},
		"SELECT COUNT(*) FROM accounts"))
	// Composite deletes: archive day + its refunds (transactional).
	for i := 0; i < 21; i++ {
		day := 1 + i
		add(newWriteTask(next(task.Delete), task.Delete,
			fmt.Sprintf("Archive day %d: delete that day's refunds and its orders together, atomically.", day),
			[]string{
				fmt.Sprintf("DELETE FROM refunds WHERE day = %d", day),
				fmt.Sprintf("DELETE FROM sales WHERE day = %d", day),
			},
			[]string{"refunds", "sales"},
			fmt.Sprintf("SELECT (SELECT COUNT(*) FROM refunds WHERE day = %d) + (SELECT COUNT(*) FROM sales WHERE day = %d)", day, day)))
	}

	if len(out) != NumWriteTasks {
		panic(fmt.Sprintf("birdext: generated %d write tasks, want %d", len(out), NumWriteTasks))
	}
	return out
}
