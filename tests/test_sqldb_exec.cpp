// Execution tests for the SQL engine: DDL, DML, SELECT machinery,
// constraints, and transactions, through the JDBC-like Connection layer.
#include <gtest/gtest.h>
#include <time.h>

#include "sqldb/connection.h"
#include "sqldb/parser.h"
#include "sqldb/table.h"
#include "sqldb/wal.h"
#include "util/error.h"
#include "util/file.h"

using namespace perfdmf::sqldb;
using perfdmf::DbError;

namespace {

/// A connection pre-loaded with a small two-table dataset.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn.execute_update(
        "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT NOT NULL)");
    conn.execute_update(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT NOT NULL,"
        " dept INTEGER, salary REAL, FOREIGN KEY (dept) REFERENCES dept (id))");
    conn.execute_update("INSERT INTO dept (name) VALUES ('eng'), ('ops')");
    conn.execute_update(
        "INSERT INTO emp (name, dept, salary) VALUES"
        " ('ada', 1, 100.0), ('bob', 1, 80.0), ('cyd', 2, 90.0),"
        " ('dee', 2, 70.0), ('eli', NULL, 60.0)");
  }

  Connection conn;
};

TEST_F(ExecTest, SelectAllColumnsAndRows) {
  auto rs = conn.execute("SELECT * FROM emp");
  EXPECT_EQ(rs.row_count(), 5u);
  EXPECT_EQ(rs.column_count(), 4u);
  EXPECT_EQ(rs.column_names()[1], "name");
}

TEST_F(ExecTest, WhereFiltering) {
  auto rs = conn.execute("SELECT name FROM emp WHERE salary >= 90");
  EXPECT_EQ(rs.row_count(), 2u);
}

TEST_F(ExecTest, WhereWithPlaceholders) {
  auto stmt = conn.prepare("SELECT name FROM emp WHERE dept = ? AND salary > ?");
  stmt.set_int(1, 1);
  stmt.set_double(2, 90.0);
  auto rs = stmt.execute_query();
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
}

TEST_F(ExecTest, PreparedStatementReusableWithNewParams) {
  auto stmt = conn.prepare("SELECT COUNT(*) FROM emp WHERE dept = ?");
  stmt.set_int(1, 1);
  auto rs1 = stmt.execute_query();
  rs1.next();
  EXPECT_EQ(rs1.get_int(1), 2);
  stmt.set_int(1, 2);
  auto rs2 = stmt.execute_query();
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 2);
}

TEST_F(ExecTest, NullComparisonExcludesRows) {
  // eli has NULL dept; dept = NULL is unknown, dept != 1 excludes NULL too.
  auto rs = conn.execute("SELECT COUNT(*) FROM emp WHERE dept != 1");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 2);
}

TEST_F(ExecTest, IsNullAndIsNotNull) {
  auto rs = conn.execute("SELECT name FROM emp WHERE dept IS NULL");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "eli");
  auto rs2 = conn.execute("SELECT COUNT(*) FROM emp WHERE dept IS NOT NULL");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 4);
}

TEST_F(ExecTest, OrderByAscDescAndPosition) {
  auto rs = conn.execute("SELECT name, salary FROM emp ORDER BY salary DESC");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
  auto rs2 = conn.execute("SELECT name, salary FROM emp ORDER BY 2");
  rs2.next();
  EXPECT_EQ(rs2.get_string(1), "eli");
}

TEST_F(ExecTest, OrderByExpression) {
  auto rs = conn.execute("SELECT name FROM emp ORDER BY salary * -1");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
}

TEST_F(ExecTest, LimitOffset) {
  auto rs =
      conn.execute("SELECT name FROM emp ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "bob");
}

TEST_F(ExecTest, DistinctRemovesDuplicates) {
  auto rs = conn.execute("SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL");
  EXPECT_EQ(rs.row_count(), 2u);
}

TEST_F(ExecTest, AggregatesWithoutGroupBy) {
  auto rs = conn.execute(
      "SELECT COUNT(*), COUNT(dept), MIN(salary), MAX(salary), AVG(salary),"
      " SUM(salary) FROM emp");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 5);
  EXPECT_EQ(rs.get_int(2), 4);  // COUNT(col) skips NULLs
  EXPECT_DOUBLE_EQ(rs.get_double(3), 60.0);
  EXPECT_DOUBLE_EQ(rs.get_double(4), 100.0);
  EXPECT_DOUBLE_EQ(rs.get_double(5), 80.0);
  EXPECT_DOUBLE_EQ(rs.get_double(6), 400.0);
}

TEST_F(ExecTest, StddevMatchesSampleFormula) {
  auto rs = conn.execute("SELECT STDDEV(salary) FROM emp WHERE dept = 1");
  rs.next();
  // values 100, 80 -> sample stddev = sqrt(200) ~ 14.1421
  EXPECT_NEAR(rs.get_double(1), 14.142135623730951, 1e-9);
}

TEST_F(ExecTest, StddevOfSingleRowIsNull) {
  auto rs = conn.execute("SELECT STDDEV(salary) FROM emp WHERE name = 'ada'");
  rs.next();
  EXPECT_TRUE(rs.is_null(1));
}

TEST_F(ExecTest, AggregateOverEmptySetIsNullButCountZero) {
  auto rs = conn.execute("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 99");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 0);
  EXPECT_TRUE(rs.is_null(2));
}

TEST_F(ExecTest, GroupByWithHaving) {
  auto rs = conn.execute(
      "SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp"
      " WHERE dept IS NOT NULL GROUP BY dept HAVING AVG(salary) > 75"
      " ORDER BY dept");
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);
  EXPECT_EQ(rs.get_int(2), 2);
  EXPECT_DOUBLE_EQ(rs.get_double(3), 90.0);
}

TEST_F(ExecTest, CountDistinct) {
  conn.execute_update("INSERT INTO emp (name, dept, salary) VALUES ('fey', 1, 80)");
  auto rs = conn.execute("SELECT COUNT(DISTINCT salary) FROM emp");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 5);  // 100, 80, 90, 70, 60 (80 repeated)
}

TEST_F(ExecTest, InnerJoinWithIndexKey) {
  auto rs = conn.execute(
      "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept = d.id"
      " ORDER BY e.id");
  ASSERT_EQ(rs.row_count(), 4u);  // eli (NULL dept) drops out
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
  EXPECT_EQ(rs.get_string(2), "eng");
}

TEST_F(ExecTest, JoinWithArbitraryCondition) {
  auto rs = conn.execute(
      "SELECT COUNT(*) FROM emp a JOIN emp b ON a.salary < b.salary");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 10);  // 5 choose 2 ordered pairs
}

TEST_F(ExecTest, LeftJoinKeepsUnmatchedRowsNullPadded) {
  auto rs = conn.execute(
      "SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept = d.id"
      " ORDER BY e.id");
  ASSERT_EQ(rs.row_count(), 5u);  // eli kept with NULL dept name
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rs.next());
    EXPECT_FALSE(rs.is_null(2));
  }
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_string(1), "eli");
  EXPECT_TRUE(rs.is_null(2));
}

TEST_F(ExecTest, LeftOuterJoinSpelling) {
  auto rs = conn.execute(
      "SELECT COUNT(*) FROM emp e LEFT OUTER JOIN dept d ON e.dept = d.id");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 5);
}

TEST_F(ExecTest, LeftJoinAggregatesPerParent) {
  // Departments with how many employees (including a new empty one).
  conn.execute_update("INSERT INTO dept (name) VALUES ('empty')");
  auto rs = conn.execute(
      "SELECT d.name, COUNT(e.id) FROM dept d LEFT JOIN emp e"
      " ON e.dept = d.id GROUP BY d.name ORDER BY 1");
  ASSERT_EQ(rs.row_count(), 3u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "empty");
  EXPECT_EQ(rs.get_int(2), 0);  // COUNT(col) skips the NULL padding
  rs.next();
  EXPECT_EQ(rs.get_string(1), "eng");
  EXPECT_EQ(rs.get_int(2), 2);
}

TEST_F(ExecTest, PredicatePushDownWithJoinMatchesPostFilter) {
  // Same query with the filter on the base table vs on the joined table;
  // the base-table filter takes the push-down path.
  auto rs1 = conn.execute(
      "SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept = d.id"
      " WHERE e.salary > 75");
  rs1.next();
  auto rs2 = conn.execute(
      "SELECT COUNT(*) FROM dept d JOIN emp e ON e.dept = d.id"
      " WHERE e.salary > 75");
  rs2.next();
  EXPECT_EQ(rs1.get_int(1), rs2.get_int(1));
  EXPECT_EQ(rs1.get_int(1), 3);  // ada 100, bob 80, cyd 90
}

TEST_F(ExecTest, SelectExpressionWithoutFrom) {
  auto rs = conn.execute("SELECT 2 + 3 * 4, 'a' || 'b'");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 14);
  EXPECT_EQ(rs.get_string(2), "ab");
}

TEST_F(ExecTest, ScalarFunctions) {
  auto rs = conn.execute(
      "SELECT ABS(-5), LOWER('AbC'), UPPER('x'), LENGTH('four'),"
      " COALESCE(NULL, NULL, 9), ROUND(2.567, 2), SQRT(16.0)");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 5);
  EXPECT_EQ(rs.get_string(2), "abc");
  EXPECT_EQ(rs.get_string(3), "X");
  EXPECT_EQ(rs.get_int(4), 4);
  EXPECT_EQ(rs.get_int(5), 9);
  EXPECT_DOUBLE_EQ(rs.get_double(6), 2.57);
  EXPECT_DOUBLE_EQ(rs.get_double(7), 4.0);
}

TEST_F(ExecTest, LikePatterns) {
  auto rs = conn.execute("SELECT COUNT(*) FROM emp WHERE name LIKE '%d%'");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);  // ada, cyd, dee
}

TEST_F(ExecTest, LikeUnderscore) {
  auto rs = conn.execute("SELECT COUNT(*) FROM emp WHERE name LIKE '_o_'");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);  // bob
}

TEST_F(ExecTest, InListAndBetween) {
  auto rs = conn.execute(
      "SELECT COUNT(*) FROM emp WHERE salary IN (60.0, 70.0, 999.0)");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 2);
  auto rs2 =
      conn.execute("SELECT COUNT(*) FROM emp WHERE salary BETWEEN 70 AND 90");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 3);
}

TEST_F(ExecTest, DivisionByZeroYieldsNull) {
  auto rs = conn.execute("SELECT 1 / 0, 5 % 0");
  rs.next();
  EXPECT_TRUE(rs.is_null(1));
  EXPECT_TRUE(rs.is_null(2));
}

TEST_F(ExecTest, UpdateRowsAndReturnCount) {
  const std::size_t n =
      conn.execute_update("UPDATE emp SET salary = salary + 10 WHERE dept = 1");
  EXPECT_EQ(n, 2u);
  auto rs = conn.execute("SELECT salary FROM emp WHERE name = 'ada'");
  rs.next();
  EXPECT_DOUBLE_EQ(rs.get_double(1), 110.0);
}

TEST_F(ExecTest, DeleteRowsAndReturnCount) {
  EXPECT_EQ(conn.execute_update("DELETE FROM emp WHERE salary < 75"), 2u);
  auto rs = conn.execute("SELECT COUNT(*) FROM emp");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);
}

TEST_F(ExecTest, PrimaryKeyAutoIncrementAndUnique) {
  conn.execute_update("INSERT INTO dept (name) VALUES ('qa')");
  auto rs = conn.execute("SELECT MAX(id) FROM dept");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);
  EXPECT_THROW(
      conn.execute_update("INSERT INTO dept (id, name) VALUES (3, 'dup')"),
      DbError);
}

TEST_F(ExecTest, ExplicitPkAdvancesAutoIncrement) {
  conn.execute_update("INSERT INTO dept (id, name) VALUES (50, 'fixed')");
  conn.execute_update("INSERT INTO dept (name) VALUES ('after')");
  auto rs = conn.execute("SELECT id FROM dept WHERE name = 'after'");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 51);
}

TEST_F(ExecTest, NotNullConstraint) {
  EXPECT_THROW(conn.execute_update("INSERT INTO dept (name) VALUES (NULL)"),
               DbError);
}

TEST_F(ExecTest, ForeignKeyInsertEnforced) {
  EXPECT_THROW(conn.execute_update(
                   "INSERT INTO emp (name, dept, salary) VALUES ('x', 99, 1)"),
               DbError);
  // NULL FK is allowed.
  EXPECT_NO_THROW(conn.execute_update(
      "INSERT INTO emp (name, dept, salary) VALUES ('x', NULL, 1)"));
}

TEST_F(ExecTest, ForeignKeyDeleteRestricted) {
  EXPECT_THROW(conn.execute_update("DELETE FROM dept WHERE id = 1"), DbError);
  conn.execute_update("DELETE FROM emp WHERE dept = 1");
  EXPECT_NO_THROW(conn.execute_update("DELETE FROM dept WHERE id = 1"));
}

TEST_F(ExecTest, DropTableGuardsReferences) {
  EXPECT_THROW(conn.execute_update("DROP TABLE dept"), DbError);
  conn.execute_update("DELETE FROM emp");
  EXPECT_NO_THROW(conn.execute_update("DROP TABLE emp"));
  EXPECT_NO_THROW(conn.execute_update("DROP TABLE dept"));
  EXPECT_NO_THROW(conn.execute_update("DROP TABLE IF EXISTS dept"));
  EXPECT_THROW(conn.execute_update("DROP TABLE dept"), DbError);
}

TEST_F(ExecTest, AlterTableAddAndDropColumn) {
  conn.execute_update("ALTER TABLE emp ADD COLUMN title TEXT DEFAULT 'tbd'");
  auto rs = conn.execute("SELECT title FROM emp WHERE name = 'ada'");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "tbd");
  conn.execute_update("UPDATE emp SET title = 'chief' WHERE name = 'ada'");
  conn.execute_update("ALTER TABLE emp DROP COLUMN title");
  EXPECT_THROW(conn.execute("SELECT title FROM emp"), DbError);
}

TEST_F(ExecTest, TransactionCommitKeepsChanges) {
  conn.begin();
  conn.execute_update("INSERT INTO dept (name) VALUES ('tx')");
  conn.commit();
  auto rs = conn.execute("SELECT COUNT(*) FROM dept");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);
}

TEST_F(ExecTest, TransactionRollbackUndoesInsertUpdateDelete) {
  conn.begin();
  conn.execute_update("INSERT INTO dept (name) VALUES ('tx')");
  conn.execute_update("UPDATE emp SET salary = 0 WHERE name = 'ada'");
  conn.execute_update("DELETE FROM emp WHERE name = 'bob'");
  conn.rollback();

  auto rs = conn.execute("SELECT COUNT(*) FROM dept");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 2);
  auto rs2 = conn.execute("SELECT salary FROM emp WHERE name = 'ada'");
  rs2.next();
  EXPECT_DOUBLE_EQ(rs2.get_double(1), 100.0);
  auto rs3 = conn.execute("SELECT COUNT(*) FROM emp WHERE name = 'bob'");
  rs3.next();
  EXPECT_EQ(rs3.get_int(1), 1);
}

TEST_F(ExecTest, RollbackOfInsertThenDeleteOfSameRow) {
  auto count = [&] {
    auto rs = conn.execute("SELECT COUNT(*) FROM dept");
    rs.next();
    return rs.get_int(1);
  };
  const auto before = count();
  conn.begin();
  conn.execute_update("INSERT INTO dept (name) VALUES ('ephemeral')");
  conn.execute_update("DELETE FROM dept WHERE name = 'ephemeral'");
  conn.rollback();
  EXPECT_EQ(count(), before);
}

TEST_F(ExecTest, NestedBeginRejected) {
  conn.begin();
  EXPECT_THROW(conn.begin(), DbError);
  conn.rollback();
  EXPECT_THROW(conn.rollback(), DbError);
  EXPECT_THROW(conn.commit(), DbError);
}

TEST_F(ExecTest, ResultSetAccessors) {
  auto rs = conn.execute("SELECT id, name FROM dept ORDER BY id");
  EXPECT_THROW(rs.get(1), DbError);  // before first next()
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_int("id"), 1);
  EXPECT_EQ(rs.get_string("NAME"), "eng");  // case-insensitive names
  EXPECT_THROW(rs.get(3), DbError);
  EXPECT_THROW(rs.get("absent"), DbError);
  ASSERT_TRUE(rs.next());
  EXPECT_FALSE(rs.next());
  EXPECT_THROW(rs.get(1), DbError);  // after the end
}

TEST_F(ExecTest, MetaDataReflection) {
  auto meta = conn.get_meta_data();
  auto tables = meta.get_tables();
  // dept + emp, then the six virtual system tables.
  ASSERT_EQ(tables.size(), 8u);
  EXPECT_EQ(tables[0], "dept");
  auto columns = meta.get_columns("emp");
  ASSERT_EQ(columns.size(), 4u);
  EXPECT_EQ(columns[0].name, "id");
  EXPECT_TRUE(columns[0].primary_key);
  auto fks = meta.get_foreign_keys("emp");
  ASSERT_EQ(fks.size(), 1u);
  EXPECT_EQ(fks[0].parent_table, "dept");
}

TEST_F(ExecTest, UnknownColumnAndTableErrors) {
  EXPECT_THROW(conn.execute("SELECT bogus FROM emp"), DbError);
  EXPECT_THROW(conn.execute("SELECT * FROM bogus"), DbError);
  EXPECT_THROW(conn.execute("SELECT e.name FROM emp x"), DbError);
}

TEST_F(ExecTest, AmbiguousColumnDetected) {
  EXPECT_THROW(
      conn.execute("SELECT name FROM emp a JOIN emp b ON a.id = b.id"), DbError);
}

TEST_F(ExecTest, MissingBindParameterThrows) {
  auto stmt = conn.prepare("SELECT * FROM emp WHERE id = ?");
  EXPECT_NO_THROW(stmt.execute_query());  // NULL-bound: id = NULL matches none
  EXPECT_THROW(stmt.set_int(2, 1), DbError);
}

TEST_F(ExecTest, IndexAcceleratedEqualsMatchesScanResults) {
  conn.execute_update("CREATE INDEX idx_salary ON emp (salary)");
  auto rs = conn.execute("SELECT name FROM emp WHERE salary = 80.0");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "bob");
  // Range through the same index.
  auto rs2 =
      conn.execute("SELECT COUNT(*) FROM emp WHERE salary BETWEEN 65 AND 85");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 2);
}

}  // namespace

namespace {

TEST_F(ExecTest, ThreeTableJoin) {
  conn.execute_update(
      "CREATE TABLE badge (id INTEGER PRIMARY KEY, emp INTEGER, code TEXT,"
      " FOREIGN KEY (emp) REFERENCES emp (id))");
  conn.execute_update(
      "INSERT INTO badge (emp, code) VALUES (1, 'A1'), (3, 'C3')");
  auto rs = conn.execute(
      "SELECT e.name, d.name, b.code FROM emp e"
      " JOIN dept d ON e.dept = d.id"
      " JOIN badge b ON b.emp = e.id ORDER BY e.id");
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
  EXPECT_EQ(rs.get_string(2), "eng");
  EXPECT_EQ(rs.get_string(3), "A1");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "cyd");
  EXPECT_EQ(rs.get_string(3), "C3");
}

TEST_F(ExecTest, GroupByNullKeyFormsItsOwnGroup) {
  auto rs = conn.execute(
      "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY 2 DESC");
  // Groups: dept 1 (2), dept 2 (2), NULL (1).
  EXPECT_EQ(rs.row_count(), 3u);
  std::size_t total = 0;
  std::size_t null_groups = 0;
  auto rs2 = conn.execute("SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  while (rs2.next()) {
    total += static_cast<std::size_t>(rs2.get_int(2));
    if (rs2.is_null(1)) ++null_groups;
  }
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(null_groups, 1u);
}

TEST_F(ExecTest, DistinctTreatsNullsAsEqual) {
  conn.execute_update("INSERT INTO emp (name, dept, salary) VALUES ('fay', NULL, 1)");
  auto rs = conn.execute("SELECT DISTINCT dept FROM emp");
  EXPECT_EQ(rs.row_count(), 3u);  // 1, 2, NULL
}

TEST_F(ExecTest, LimitZeroAndOffsetBeyondEnd) {
  auto rs = conn.execute("SELECT * FROM emp LIMIT 0");
  EXPECT_EQ(rs.row_count(), 0u);
  auto rs2 = conn.execute("SELECT * FROM emp ORDER BY id LIMIT 10 OFFSET 99");
  EXPECT_EQ(rs2.row_count(), 0u);
}

TEST_F(ExecTest, OrderByPutsNullsFirst) {
  auto rs = conn.execute("SELECT name FROM emp ORDER BY dept, name");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "eli");  // NULL dept sorts before 1 and 2
}

TEST_F(ExecTest, SelfJoinWithAliases) {
  auto rs = conn.execute(
      "SELECT a.name, b.name FROM emp a JOIN emp b"
      " ON a.dept = b.dept AND a.id < b.id ORDER BY a.id");
  // Pairs within a department: (ada,bob), (cyd,dee).
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
  EXPECT_EQ(rs.get_string(2), "bob");
}

TEST_F(ExecTest, UpdateWithIndexedWhere) {
  conn.execute_update("CREATE INDEX idx_emp_dept ON emp (dept)");
  EXPECT_EQ(conn.execute_update("UPDATE emp SET salary = 0 WHERE dept = 2"), 2u);
  auto rs = conn.execute("SELECT COUNT(*) FROM emp WHERE salary = 0");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 2);
}

TEST_F(ExecTest, DeleteWithIndexedWhere) {
  conn.execute_update("CREATE INDEX idx_emp_dept ON emp (dept)");
  EXPECT_EQ(conn.execute_update("DELETE FROM emp WHERE dept = 2"), 2u);
  auto rs = conn.execute("SELECT COUNT(*) FROM emp");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 3);
}

TEST_F(ExecTest, AggregateInsideExpression) {
  auto rs = conn.execute("SELECT MAX(salary) - MIN(salary), AVG(salary) * 2"
                         " FROM emp WHERE dept IS NOT NULL");
  rs.next();
  EXPECT_DOUBLE_EQ(rs.get_double(1), 30.0);   // 100 - 70
  EXPECT_DOUBLE_EQ(rs.get_double(2), 170.0);  // 85 * 2
}

TEST_F(ExecTest, HavingOnBareColumnUsesGroupRepresentative) {
  auto rs = conn.execute(
      "SELECT dept, COUNT(*) FROM emp WHERE dept IS NOT NULL"
      " GROUP BY dept HAVING dept = 1");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);
}

TEST_F(ExecTest, QuotedIdentifiersWorkInDml) {
  conn.execute_update("ALTER TABLE emp ADD COLUMN \"weird name\" TEXT");
  conn.execute_update("UPDATE emp SET \"weird name\" = 'x' WHERE id = 1");
  auto rs = conn.execute("SELECT \"weird name\" FROM emp WHERE id = 1");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "x");
}

TEST_F(ExecTest, InsertDefaultsApplyForOmittedColumns) {
  conn.execute_update(
      "CREATE TABLE defaults_table (id INTEGER PRIMARY KEY,"
      " label TEXT DEFAULT 'none', score REAL DEFAULT 1.5)");
  conn.execute_update("INSERT INTO defaults_table (id) VALUES (1)");
  auto rs = conn.execute("SELECT label, score FROM defaults_table");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "none");
  EXPECT_DOUBLE_EQ(rs.get_double(2), 1.5);
}

}  // namespace

namespace {

TEST_F(ExecTest, InsertFromSelect) {
  conn.execute_update(
      "CREATE TABLE well_paid (id INTEGER PRIMARY KEY, name TEXT, pay REAL)");
  const std::size_t inserted = conn.execute_update(
      "INSERT INTO well_paid (name, pay)"
      " SELECT name, salary FROM emp WHERE salary >= 80 ");
  EXPECT_EQ(inserted, 3u);
  auto rs = conn.execute("SELECT name FROM well_paid ORDER BY pay DESC");
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
}

TEST_F(ExecTest, InsertFromSelectWithAggregates) {
  conn.execute_update(
      "CREATE TABLE dept_stats (dept INTEGER, n INTEGER, avg_pay REAL)");
  conn.execute_update(
      "INSERT INTO dept_stats (dept, n, avg_pay)"
      " SELECT dept, COUNT(*), AVG(salary) FROM emp"
      " WHERE dept IS NOT NULL GROUP BY dept");
  auto rs = conn.execute("SELECT n, avg_pay FROM dept_stats WHERE dept = 1");
  ASSERT_TRUE(rs.next());
  EXPECT_EQ(rs.get_int(1), 2);
  EXPECT_DOUBLE_EQ(rs.get_double(2), 90.0);
}

TEST_F(ExecTest, InsertFromSelfSelectIsWellDefined) {
  // Reading from the table being written must not loop (materialized).
  const std::size_t before = [&] {
    auto rs = conn.execute("SELECT COUNT(*) FROM emp");
    rs.next();
    return static_cast<std::size_t>(rs.get_int(1));
  }();
  conn.execute_update(
      "INSERT INTO emp (name, dept, salary)"
      " SELECT name, dept, salary + 1 FROM emp");
  auto rs = conn.execute("SELECT COUNT(*) FROM emp");
  rs.next();
  EXPECT_EQ(static_cast<std::size_t>(rs.get_int(1)), before * 2);
}

TEST_F(ExecTest, InsertFromSelectRespectsConstraints) {
  // Selecting a NULL into a NOT NULL column must fail.
  EXPECT_THROW(conn.execute_update(
                   "INSERT INTO dept (name) SELECT NULL FROM emp LIMIT 1"),
               DbError);
  // FK violations propagate too.
  EXPECT_THROW(conn.execute_update(
                   "INSERT INTO emp (name, dept, salary)"
                   " SELECT 'ghost', 99, 1 FROM dept LIMIT 1"),
               DbError);
}

TEST_F(ExecTest, InsertFromSelectWithPlaceholders) {
  auto stmt = conn.prepare(
      "INSERT INTO emp (name, dept, salary)"
      " SELECT name || '_copy', dept, salary * ? FROM emp WHERE dept = ?");
  stmt.set_double(1, 2.0);
  stmt.set_int(2, 1);
  EXPECT_EQ(stmt.execute_update(), 2u);
  auto rs = conn.execute("SELECT salary FROM emp WHERE name = 'ada_copy'");
  ASSERT_TRUE(rs.next());
  EXPECT_DOUBLE_EQ(rs.get_double(1), 200.0);
}

}  // namespace

namespace {

TEST_F(ExecTest, ViewSelectsLikeATable) {
  conn.execute_update(
      "CREATE VIEW well_paid AS SELECT name, salary FROM emp WHERE salary >= 80");
  auto rs = conn.execute("SELECT * FROM well_paid ORDER BY salary DESC");
  ASSERT_EQ(rs.row_count(), 3u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
  // Views reflect later base-table changes (re-materialized per query).
  conn.execute_update("UPDATE emp SET salary = 200 WHERE name = 'eli'");
  auto rs2 = conn.execute("SELECT COUNT(*) FROM well_paid");
  rs2.next();
  EXPECT_EQ(rs2.get_int(1), 4);
}

TEST_F(ExecTest, ViewWithAggregatesAndFilterOnView) {
  conn.execute_update(
      "CREATE VIEW dept_stats AS SELECT dept AS d, COUNT(*) AS n,"
      " AVG(salary) AS pay FROM emp WHERE dept IS NOT NULL GROUP BY dept");
  auto rs = conn.execute("SELECT d, pay FROM dept_stats WHERE n = 2 ORDER BY d");
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_int(1), 1);
  EXPECT_DOUBLE_EQ(rs.get_double(2), 90.0);
}

TEST_F(ExecTest, ViewJoinsAgainstTables) {
  conn.execute_update(
      "CREATE VIEW engineers AS SELECT id, name, dept FROM emp WHERE dept = 1");
  auto rs = conn.execute(
      "SELECT v.name, d.name FROM engineers v JOIN dept d ON v.dept = d.id"
      " ORDER BY v.id");
  ASSERT_EQ(rs.row_count(), 2u);
  rs.next();
  EXPECT_EQ(rs.get_string(2), "eng");
}

TEST_F(ExecTest, ViewOnViewAndCycleDetection) {
  conn.execute_update("CREATE VIEW v1 AS SELECT name FROM emp WHERE dept = 1");
  conn.execute_update("CREATE VIEW v2 AS SELECT name FROM v1 WHERE name LIKE 'a%'");
  auto rs = conn.execute("SELECT * FROM v2");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "ada");
  // A view over a missing table fails at use, not at create: views bind late.
  conn.execute_update("CREATE VIEW dangling AS SELECT x FROM not_yet");
  EXPECT_THROW(conn.execute("SELECT * FROM dangling"), DbError);
}

TEST_F(ExecTest, ViewDdlRules) {
  conn.execute_update("CREATE VIEW v AS SELECT name FROM emp");
  EXPECT_THROW(conn.execute_update("CREATE VIEW v AS SELECT 1"), DbError);
  EXPECT_THROW(conn.execute_update("CREATE TABLE v (x INTEGER)"), DbError);
  EXPECT_THROW(conn.execute_update("CREATE VIEW dept AS SELECT 1"), DbError);
  EXPECT_THROW(parse_statement("CREATE VIEW p AS SELECT * FROM t WHERE x = ?"),
               perfdmf::ParseError);
  conn.execute_update("DROP VIEW v");
  EXPECT_THROW(conn.execute_update("DROP VIEW v"), DbError);
  EXPECT_NO_THROW(conn.execute_update("DROP VIEW IF EXISTS v"));
  auto views = conn.get_meta_data().get_views();
  EXPECT_TRUE(views.empty());
}

TEST_F(ExecTest, ViewListedInMetadata) {
  conn.execute_update("CREATE VIEW v AS SELECT name FROM emp");
  auto views = conn.get_meta_data().get_views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0], "v");
}

// ------------------------------------------------- planner & plan cache

/// EXPLAIN output flattened to one newline-joined string for assertions.
std::string explain(Connection& conn, const std::string& sql) {
  auto rs = conn.execute("EXPLAIN " + sql);
  std::string out;
  while (rs.next()) {
    out += rs.get_string(1);
    out += '\n';
  }
  return out;
}

TEST_F(ExecTest, StrictIndexRangeBoundsMatchUnindexedAnswer) {
  // k is indexed, u holds the same values unindexed; every range shape
  // must produce the same rows through both access paths. Keys are
  // duplicated so boundary over-fetch would be visible as extra rows.
  conn.execute_update("CREATE TABLE pts (k INTEGER, u INTEGER)");
  auto ins = conn.prepare("INSERT INTO pts (k, u) VALUES (?, ?)");
  for (int i = 0; i < 10; ++i) {
    for (int dup = 0; dup < 2; ++dup) {
      ins.set_int(1, i);
      ins.set_int(2, i);
      ins.execute_update();
    }
  }
  conn.execute_update("CREATE INDEX pts_k ON pts (k)");

  const char* shapes[] = {
      "%s > 5",          "%s >= 5",          "%s < 5",
      "%s <= 5",         "%s > 2 AND %s < 7", "%s >= 2 AND %s < 7",
      "%s BETWEEN 3 AND 6", "%s BETWEEN 3 AND 6 AND %s > 3",
      "%s BETWEEN 3 AND 6 AND %s < 6", "%s > 7 AND %s < 3",
  };
  for (const char* shape : shapes) {
    auto fill = [&](const std::string& column) {
      std::string sql = shape;
      std::size_t at;
      while ((at = sql.find("%s")) != std::string::npos) {
        sql.replace(at, 2, column);
      }
      return sql;
    };
    auto indexed = conn.execute("SELECT COUNT(*), SUM(k) FROM pts WHERE " +
                                fill("k"));
    auto plain = conn.execute("SELECT COUNT(*), SUM(u) FROM pts WHERE " +
                              fill("u"));
    indexed.next();
    plain.next();
    EXPECT_EQ(indexed.get_int(1), plain.get_int(1)) << shape;
    EXPECT_EQ(indexed.get(2).is_null(), plain.get(2).is_null()) << shape;
    if (!indexed.get(2).is_null()) {
      EXPECT_EQ(indexed.get_int(2), plain.get_int(2)) << shape;
    }
  }
  // The strict shapes actually go through the index.
  std::string plan = explain(conn, "SELECT k FROM pts WHERE k > 5");
  EXPECT_NE(plan.find("index-range(k)"), std::string::npos) << plan;
}

TEST_F(ExecTest, NegativeLimitOffsetRejected) {
  EXPECT_THROW(conn.execute("SELECT name FROM emp ORDER BY name LIMIT -1"),
               DbError);
  EXPECT_THROW(
      conn.execute("SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET -3"),
      DbError);

  auto stmt = conn.prepare("SELECT name FROM emp ORDER BY name LIMIT ?");
  stmt.set_int(1, -5);
  EXPECT_THROW(stmt.execute_query(), DbError);
  stmt.set_int(1, 2);
  auto rs = stmt.execute_query();
  EXPECT_EQ(rs.row_count(), 2u);

  auto offs = conn.prepare("SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET ?");
  offs.set_int(1, -1);
  EXPECT_THROW(offs.execute_query(), DbError);

  auto typed = conn.prepare("SELECT name FROM emp LIMIT ?");
  typed.set_string(1, "ten");
  EXPECT_THROW(typed.execute_query(), DbError);
}

TEST_F(ExecTest, LimitZeroAndLimitOffsetStillWork) {
  auto rs = conn.execute("SELECT name FROM emp ORDER BY salary DESC LIMIT 0");
  EXPECT_EQ(rs.row_count(), 0u);
  auto rs2 =
      conn.execute("SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1");
  ASSERT_EQ(rs2.row_count(), 2u);
  rs2.next();
  EXPECT_EQ(rs2.get_string(1), "cyd");  // 100, [90, 80], 70, 60
  rs2.next();
  EXPECT_EQ(rs2.get_string(1), "bob");
}

TEST_F(ExecTest, UniqueIndexEqualityPreferredOverFirstIndexedEquality) {
  conn.execute_update("CREATE TABLE files (id INTEGER, node INTEGER, name TEXT)");
  conn.execute_update("CREATE INDEX files_node ON files (node)");
  conn.execute_update("CREATE UNIQUE INDEX files_id ON files (id)");
  conn.execute_update(
      "INSERT INTO files (id, node, name) VALUES"
      " (1, 1, 'a'), (2, 1, 'b'), (3, 1, 'c'), (4, 2, 'd')");
  // Both equalities are indexed and `node = 1` comes first in the WHERE
  // conjunction, but the unique index pins at most one row.
  std::string plan =
      explain(conn, "SELECT name FROM files WHERE node = 1 AND id = 3");
  EXPECT_NE(plan.find("unique-index-eq(id)"), std::string::npos) << plan;
  auto rs = conn.execute("SELECT name FROM files WHERE node = 1 AND id = 3");
  ASSERT_EQ(rs.row_count(), 1u);
  rs.next();
  EXPECT_EQ(rs.get_string(1), "c");
}

TEST_F(ExecTest, ExplainReportsAccessPathJoinAndOrderStrategies) {
  std::string plan = explain(
      conn, "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept = d.id");
  EXPECT_NE(plan.find("from e: scan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("join d: hash build="), std::string::npos) << plan;

  plan = explain(conn, "SELECT name FROM emp WHERE id = 3");
  EXPECT_NE(plan.find("unique-index-eq(id)"), std::string::npos) << plan;

  plan = explain(conn, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2");
  EXPECT_NE(plan.find("order-by: top-k(2)"), std::string::npos) << plan;

  plan = explain(conn, "SELECT name FROM emp ORDER BY salary");
  EXPECT_NE(plan.find("order-by: sort"), std::string::npos) << plan;

  plan = explain(conn, "SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  EXPECT_NE(plan.find("group-by: hash groups=3"), std::string::npos) << plan;

  // Forcing the fallbacks changes the reported strategies.
  ExecutorTuning off;
  off.hash_join = off.hash_group_by = off.top_k = false;
  conn.database().set_executor_tuning(off);
  plan = explain(conn,
                 "SELECT e.name, dept, COUNT(*) cnt FROM emp e"
                 " JOIN dept d ON e.dept = d.id"
                 " GROUP BY e.name, dept ORDER BY cnt LIMIT 2");
  EXPECT_NE(plan.find("join d: index-nested-loop"), std::string::npos) << plan;
  EXPECT_NE(plan.find("group-by: ordered"), std::string::npos) << plan;
  EXPECT_NE(plan.find("order-by: sort"), std::string::npos) << plan;
  conn.database().set_executor_tuning(ExecutorTuning{});

  // Without an index on the join key and hash joins off: nested loop.
  conn.execute_update("CREATE TABLE tags (emp_name TEXT, tag TEXT)");
  conn.execute_update("INSERT INTO tags VALUES ('ada', 'lead')");
  conn.database().set_executor_tuning(off);
  plan = explain(
      conn, "SELECT tag FROM emp e JOIN tags t ON e.name = t.emp_name");
  EXPECT_NE(plan.find("join t: nested-loop"), std::string::npos) << plan;
  conn.database().set_executor_tuning(ExecutorTuning{});
}

TEST_F(ExecTest, ExplainPlanCacheHitMissAndDdlInvalidation) {
  auto cache_line = [&](const std::string& sql) {
    auto rs = conn.execute(sql);
    std::string last;
    while (rs.next()) last = rs.get_string(1);
    return last;
  };
  const std::string q = "EXPLAIN SELECT name FROM emp WHERE dept = 1";
  EXPECT_EQ(cache_line(q), "plan-cache: miss");
  EXPECT_EQ(cache_line(q), "plan-cache: hit");

  // DDL bumps the schema epoch, invalidating every cached plan — and the
  // replan now picks up the new index.
  conn.execute_update("CREATE INDEX emp_dept ON emp (dept)");
  EXPECT_EQ(cache_line(q), "plan-cache: miss");
  std::string plan = explain(conn, "SELECT name FROM emp WHERE dept = 1");
  EXPECT_NE(plan.find("index-eq(dept)"), std::string::npos) << plan;

  const PlanCacheStats stats = conn.plan_cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.invalidations, 1u);
}

TEST_F(ExecTest, PlanCacheCountsHitsAndHonorsCapacity) {
  const PlanCacheStats before = conn.plan_cache_stats();
  conn.execute("SELECT COUNT(*) FROM emp");
  conn.execute("SELECT COUNT(*) FROM emp");
  conn.execute("SELECT COUNT(*) FROM emp");
  const PlanCacheStats after = conn.plan_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(after.misses, before.misses + 1);
  // Identical results through the cached plan.
  auto rs = conn.execute("SELECT COUNT(*) FROM emp");
  rs.next();
  EXPECT_EQ(rs.get_int(1), 5);

  // Capacity 0 disables caching entirely.
  conn.set_plan_cache_capacity(0);
  const PlanCacheStats empty_before = conn.plan_cache_stats();
  conn.execute("SELECT COUNT(*) FROM emp");
  conn.execute("SELECT COUNT(*) FROM emp");
  const PlanCacheStats empty_after = conn.plan_cache_stats();
  EXPECT_EQ(empty_after.hits, empty_before.hits);

  // A tiny capacity evicts cold entries instead of growing unbounded.
  conn.set_plan_cache_capacity(2);
  conn.execute("SELECT 1");
  conn.execute("SELECT 2");
  conn.execute("SELECT 3");
  conn.execute("SELECT 4");
  EXPECT_GE(conn.plan_cache_stats().evictions, 2u);
}

}  // namespace

// ------------------------------------------------------ index complexity

namespace {

Value int_value(std::int64_t v) { return Value(v); }

/// Two INTEGER columns, (k, v), with an ordinary index on k.
Table make_keyed_table() {
  TableSchema schema("keyed");
  for (const char* name : {"k", "v"}) {
    ColumnDef column;
    column.name = name;
    column.type = ValueType::kInt;
    schema.add_column(std::move(column));
  }
  return Table(std::move(schema));
}

/// CPU time of the calling thread: preemption by other processes does not
/// count, so a cost ratio measured with it holds on a loaded machine.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(TableIndex, OneKeyBulkLoadStaysLinearAndKeepsTheEntryContract) {
  const ReadView latest = ReadView::latest();
  {
    // Entry contract: one entry per (key, slot), stale keys kept until
    // vacuum, ranges deduplicated by slot.
    Table t = make_keyed_table();
    t.create_index(0, /*unique=*/false);
    const RowId a = t.insert(Row{int_value(1), int_value(0)}, nullptr, latest);
    t.update(a, Row{int_value(1), int_value(1)}, nullptr, latest);
    EXPECT_EQ(*t.index_equal(0, int_value(1)), std::vector<RowId>{a});
    t.update(a, Row{int_value(2), int_value(2)}, nullptr, latest);
    // The slot is a candidate under both keys; the caller's re-check
    // against the visible version rejects the stale one.
    EXPECT_EQ(*t.index_equal(0, int_value(1)), std::vector<RowId>{a});
    EXPECT_EQ(*t.index_equal(0, int_value(2)), std::vector<RowId>{a});
    EXPECT_EQ((*t.fetch(a, latest))[0], int_value(2));
    EXPECT_EQ(*t.index_range(0, int_value(1), int_value(2)),
              std::vector<RowId>{a});
    t.vacuum();
    EXPECT_TRUE(t.index_equal(0, int_value(1))->empty());
    EXPECT_EQ(*t.index_equal(0, int_value(2)), std::vector<RowId>{a});
  }

  // Every row under one key — the shape of a one-metric trial under the
  // metric FK index. Per-row cost over 100K rows must stay within 3x the
  // per-row cost over the first 10K; an index that scanned a key's
  // entries on each insert would grow it ~10x. The budget is checked as
  // rows go in, so a quadratic path fails within seconds instead of
  // running on.
  constexpr std::size_t kSmall = 10'000;
  constexpr std::size_t kLarge = 100'000;
  constexpr double kMaxRatio = 3.0;
  const Value key = int_value(7);
  Table t = make_keyed_table();
  t.create_index(0, /*unique=*/false);
  double small_per_row = 0.0;
  const double start = thread_cpu_seconds();
  for (std::size_t i = 1; i <= kLarge; ++i) {
    t.insert(Row{key, int_value(static_cast<std::int64_t>(i))}, nullptr, latest);
    if (i % 1000 != 0) continue;
    const double spent = thread_cpu_seconds() - start;
    if (i == kSmall) small_per_row = spent / kSmall;
    if (i <= kSmall) continue;
    ASSERT_LE(spent, kMaxRatio * small_per_row * static_cast<double>(i))
        << "after " << i << " rows; per-row cost over the first " << kSmall
        << " was " << small_per_row * 1e6 << " us";
  }
  EXPECT_EQ(t.index_equal(0, key)->size(), kLarge);
}

}  // namespace

// CREATE UNIQUE INDEX over a column that already repeats a non-NULL key
// fails up front: no index is left behind (nor an existing non-unique one
// promoted) and nothing reaches the WAL, so a reopen agrees.
TEST(UniqueIndex, CreateOverDuplicateKeysFailsAndLeavesNoTrace) {
  perfdmf::util::ScopedTempDir dir;
  const auto db_dir = dir.path() / "db";
  {
    Connection conn(db_dir);
    conn.execute_update("CREATE TABLE p (id INTEGER PRIMARY KEY)");
    conn.execute_update(
        "CREATE TABLE f (id INTEGER PRIMARY KEY, code INTEGER, parent INTEGER,"
        " FOREIGN KEY (parent) REFERENCES p (id))");
    conn.execute_update("INSERT INTO p (id) VALUES (1)");
    conn.execute_update(
        "INSERT INTO f (code, parent) VALUES (1, 1), (1, 1), (NULL, NULL),"
        " (NULL, NULL), (2, NULL)");
    const Table& f = conn.database().table("f");
    const std::uint64_t records = conn.database().wal()->written_seq();

    EXPECT_THROW(conn.execute_update("CREATE UNIQUE INDEX fc ON f (code)"),
                 DbError);
    EXPECT_FALSE(f.has_index(1));
    // `parent` already has its FK index; it must not turn unique.
    EXPECT_THROW(conn.execute_update("CREATE UNIQUE INDEX fp ON f (parent)"),
                 DbError);
    EXPECT_TRUE(f.has_index(2));
    EXPECT_FALSE(f.has_unique_index(2));
    EXPECT_EQ(conn.database().wal()->written_seq(), records);

    // NULLs never collide: with the duplicate gone the index builds, and
    // then enforces uniqueness.
    conn.execute_update("DELETE FROM f WHERE id = 2");
    conn.execute_update("CREATE UNIQUE INDEX fc ON f (code)");
    EXPECT_TRUE(f.has_unique_index(1));
    EXPECT_THROW(conn.execute_update("INSERT INTO f (code) VALUES (2)"),
                 DbError);
  }
  Connection reopened(db_dir);
  EXPECT_TRUE(reopened.recovery_report().clean());
  EXPECT_TRUE(reopened.database().table("f").has_unique_index(1));
  EXPECT_FALSE(reopened.database().table("f").has_unique_index(2));
}
