package catalog

import (
	"testing"

	"repro/internal/types"
)

func tbl(name string) *Table {
	return &Table{
		Name: name,
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt},
			types.Column{Name: "v", Kind: types.KindText},
		),
		Distribution: DistHash,
		DistKeyCols:  []int{0},
		PartitionCol: -1,
	}
}

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	if err := c.CreateTable(tbl("t")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(tbl("t")); err == nil {
		t.Fatal("duplicate create")
	}
	got, err := c.Table("T") // case-insensitive
	if err != nil || got.Name != "t" {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if got.ID == 0 {
		t.Fatal("no id assigned")
	}
	if !c.HasTable("t") {
		t.Fatal("HasTable")
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); err == nil {
		t.Fatal("lookup after drop")
	}
	if err := c.DropTable("t"); err == nil {
		t.Fatal("double drop")
	}
}

func TestPartitionIDsAndRouting(t *testing.T) {
	c := New()
	tab := tbl("sales")
	tab.PartitionCol = 0
	tab.Partitions = []Partition{
		{Name: "p1", Start: types.NewInt(0), End: types.NewInt(100), Storage: Heap},
		{Name: "p2", Start: types.NewInt(100), End: types.NewInt(200), Storage: AOColumn},
	}
	if err := c.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if tab.Partitions[0].ID == 0 || tab.Partitions[0].ID == tab.Partitions[1].ID {
		t.Fatal("partition ids")
	}
	if p := tab.PartitionFor(types.NewInt(150)); p == nil || p.Name != "p2" {
		t.Fatalf("PartitionFor(150) = %v", p)
	}
	if p := tab.PartitionFor(types.NewInt(100)); p == nil || p.Name != "p2" {
		t.Fatal("boundary is half-open")
	}
	if p := tab.PartitionFor(types.NewInt(500)); p != nil {
		t.Fatal("out of range must be nil")
	}
	if !tab.IsPartitioned() {
		t.Fatal("IsPartitioned")
	}
}

func TestIndexes(t *testing.T) {
	c := New()
	_ = c.CreateTable(tbl("t"))
	if err := c.AddIndex("t", &Index{Name: "i", Columns: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex("t", &Index{Name: "i", Columns: []int{1}}); err == nil {
		t.Fatal("duplicate index name")
	}
	if err := c.AddIndex("zzz", &Index{Name: "j"}); err == nil {
		t.Fatal("index on missing table")
	}
	tab, _ := c.Table("t")
	if len(tab.Indexes) != 1 || tab.Indexes[0].Table != "t" {
		t.Fatalf("indexes: %+v", tab.Indexes)
	}
}

func TestBuiltinResourceGroupsAndRoles(t *testing.T) {
	c := New()
	if _, err := c.ResourceGroup("default_group"); err != nil {
		t.Fatal("default_group missing")
	}
	if _, err := c.ResourceGroup("admin_group"); err != nil {
		t.Fatal("admin_group missing")
	}
	r, err := c.Role("gpadmin")
	if err != nil || r.ResourceGroup != "admin_group" {
		t.Fatalf("gpadmin: %v %v", r, err)
	}
	if err := c.DropResourceGroup("default_group"); err == nil {
		t.Fatal("built-in group dropped")
	}
}

func TestResourceGroupLifecycle(t *testing.T) {
	c := New()
	def := &ResourceGroupDef{Name: "olap_group", Concurrency: 10, CPURateLimit: 20, MemoryLimit: 35, MemSharedQuota: 20}
	if err := c.CreateResourceGroup(def); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateResourceGroup(def); err == nil {
		t.Fatal("duplicate group")
	}
	if err := c.CreateRole("dev1", "olap_group"); err != nil {
		t.Fatal(err)
	}
	// Can't drop a group a role is bound to.
	if err := c.DropResourceGroup("olap_group"); err == nil {
		t.Fatal("dropped a bound group")
	}
	if err := c.AlterRole("dev1", "default_group"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropResourceGroup("olap_group"); err != nil {
		t.Fatal(err)
	}
	// Role with missing group rejected.
	if err := c.CreateRole("dev2", "nope"); err == nil {
		t.Fatal("role with unknown group")
	}
	if err := c.AlterRole("dev1", "nope"); err == nil {
		t.Fatal("alter to unknown group")
	}
	if err := c.AlterRole("ghost", "default_group"); err == nil {
		t.Fatal("alter unknown role")
	}
	// Empty group name defaults.
	if err := c.CreateRole("dev3", ""); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Role("dev3")
	if r.ResourceGroup != "default_group" {
		t.Fatalf("default binding: %q", r.ResourceGroup)
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		_ = c.CreateTable(tbl(n))
	}
	ts := c.Tables()
	if len(ts) != 3 || ts[0].Name != "alpha" || ts[2].Name != "zeta" {
		t.Fatalf("order: %v", []string{ts[0].Name, ts[1].Name, ts[2].Name})
	}
}

// TestReplaceTableNeverHidesName pins the online-expansion flip race: the
// flip used to drop the original and then rename the staging table in two
// catalog steps, and a statement resolving the name in between failed with
// "does not exist". Concurrent lookups must always find a table.
func TestReplaceTableNeverHidesName(t *testing.T) {
	c := New()
	if err := c.CreateTable(tbl("fr")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.Table("fr"); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if err := c.CreateTable(tbl("fr_staging")); err != nil {
			t.Fatal(err)
		}
		if err := c.ReplaceTable("fr", "fr_staging"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatalf("lookup during the flip: %v", err)
	}
	if _, err := c.Table("fr_staging"); err == nil {
		t.Fatal("staging name still resolves after the flip")
	}
	if err := c.ReplaceTable("fr", "missing"); err == nil {
		t.Fatal("replacing with a missing staging table succeeded")
	}
}
