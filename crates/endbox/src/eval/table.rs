//! The one result type of the scaling experiments: a [`Table`] of named,
//! fixed-precision columns with a single JSON writer and a single text
//! printer, and the [`Claim`]s (headline ratios with a floor) evaluated
//! over it. Every committed `BENCH_*.json` is exactly
//! [`Table::to_json`] of one table.

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label (JSON string).
    Str(String),
    /// A count (JSON integer).
    Int(u64),
    /// A flag (JSON boolean).
    Bool(bool),
    /// A measurement, written with its column's fixed precision.
    Num(f64),
}

macro_rules! cell_from {
    ($($from:ty => $to:expr),*) => {$(
        impl From<$from> for Cell {
            fn from(v: $from) -> Self {
                $to(v)
            }
        }
    )*};
}
cell_from!(&str => |v: &str| Cell::Str(v.to_string()), String => Cell::Str, u64 => Cell::Int);
cell_from!(usize => |v| Cell::Int(v as u64), bool => Cell::Bool, f64 => Cell::Num);

/// `cells![a, b, …]`: an iterator over the values as [`Cell`]s — a row, or
/// a run of one to `chain` into a row.
macro_rules! cells {
    ($($value:expr),* $(,)?) => {
        [$($crate::eval::table::Cell::from($value)),*].into_iter()
    };
}
pub(crate) use cells;

/// A result table: named columns, each with a fixed number of decimals
/// for its [`Cell::Num`] cells, and rows in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Artifact stem: the table is committed as `BENCH_<name>.json`.
    pub name: &'static str,
    /// One-paragraph description of the mix and the stack, printed above
    /// the grid.
    pub title: String,
    /// The grid [`Table::print`] pivots into: one line per distinct
    /// `series` key and `values` column, one grid column per distinct `x`.
    series: &'static [&'static str],
    x: &'static str,
    values: &'static [&'static str],
    columns: Vec<(&'static str, usize)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with `(column name, decimals)` columns, printed as
    /// a grid of `values` lines per distinct `series` key across `x`.
    pub fn new(
        name: &'static str,
        title: String,
        columns: &[(&'static str, usize)],
        (series, x, values): (
            &'static [&'static str],
            &'static str,
            &'static [&'static str],
        ),
    ) -> Self {
        Table {
            name,
            title,
            series,
            x,
            values,
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not have one cell per column.
    pub fn push(&mut self, row: impl IntoIterator<Item = Cell>) {
        let row: Vec<Cell> = row.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.name);
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// File name of the committed artifact (`BENCH_<name>.json`).
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    fn col(&self, column: &str) -> usize {
        self.columns
            .iter()
            .position(|(name, _)| *name == column)
            .unwrap_or_else(|| panic!("{}: no column {column}", self.name))
    }

    /// The cell as the artifact spells it (strings unquoted).
    fn text(&self, row: usize, col: usize) -> String {
        match &self.rows[row][col] {
            Cell::Str(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Num(x) => format!("{x:.*}", self.columns[col].1),
        }
    }

    /// The numeric value of `column` in `row` (unrounded).
    ///
    /// # Panics
    ///
    /// Panics on an unknown column or a non-numeric cell.
    pub fn num(&self, row: usize, column: &str) -> f64 {
        match &self.rows[row][self.col(column)] {
            Cell::Num(x) => *x,
            Cell::Int(n) => *n as f64,
            other => panic!("{}: {column} is not numeric: {other:?}", self.name),
        }
    }

    /// Every value of a numeric `column`, in row order.
    pub fn column(&self, column: &str) -> Vec<f64> {
        (0..self.len()).map(|r| self.num(r, column)).collect()
    }

    /// The value of `column` in the single row whose `(column, text)`
    /// cells all match `keys`.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one row matches.
    pub fn get(&self, keys: &[(&str, &str)], column: &str) -> f64 {
        let (cols, texts): (Vec<usize>, Vec<&str>) =
            keys.iter().map(|(c, v)| (self.col(c), *v)).unzip();
        let mut rows = self.rows_matching(&cols, &texts);
        match (rows.next(), rows.next()) {
            (Some(row), None) => self.num(row, column),
            _ => panic!("{}: not exactly one row matches {keys:?}", self.name),
        }
    }

    /// The artifact: a JSON array with one object per row, one row per
    /// line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for r in 0..self.len() {
            let fields: Vec<String> = (0..self.columns.len())
                .map(|c| {
                    let quote = if matches!(self.rows[r][c], Cell::Str(_)) {
                        "\""
                    } else {
                        ""
                    };
                    format!(
                        "\"{}\": {quote}{}{quote}",
                        self.columns[c].0,
                        self.text(r, c)
                    )
                })
                .collect();
            let comma = if r + 1 == self.len() { "" } else { "," };
            out.push_str(&format!("  {{{}}}{comma}\n", fields.join(", ")));
        }
        out.push_str("]\n");
        out
    }

    /// Rows whose `cols` cells spell exactly `texts`.
    fn rows_matching<'a, S: AsRef<str>>(
        &'a self,
        cols: &'a [usize],
        texts: &'a [S],
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.len()).filter(move |&r| {
            cols.iter()
                .zip(texts)
                .all(|(&c, t)| self.text(r, c) == t.as_ref())
        })
    }

    /// Distinct texts of the given columns, in first-seen row order.
    fn distinct(&self, cols: &[usize]) -> Vec<Vec<String>> {
        let mut seen: Vec<Vec<String>> = Vec::new();
        for r in 0..self.len() {
            let key: Vec<String> = cols.iter().map(|&c| self.text(r, c)).collect();
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen
    }

    /// Prints the title and the table pivoted into its grid.
    pub fn print(&self) {
        println!("=== {} ===\n", self.title);
        let mut axes: Vec<usize> = self.series.iter().map(|c| self.col(c)).collect();
        let xs = self.distinct(&[self.col(self.x)]);
        print!("{:<34}", format!("{} \\ {}", self.series.join(","), self.x));
        for x in &xs {
            print!("{:>11}", x[0]);
        }
        println!();
        let lines = self.distinct(&axes);
        axes.push(self.col(self.x));
        for key in lines {
            for value in self.values {
                print!("{:<34}", format!("{} [{value}]", key.join(" ")));
                for x in &xs {
                    let want: Vec<&String> = key.iter().chain(x).collect();
                    let cell = self.rows_matching(&axes, &want).next();
                    let shown = cell.map_or(String::new(), |r| self.text(r, self.col(value)));
                    print!("{shown:>11}");
                }
                println!();
            }
        }
    }
}

/// Which cells of a comparison group a [`Claim`] divides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ratio {
    /// `column` of the row whose `by` cell reads `num`, over `column` of
    /// the rows whose `by` cell is one of `den` — the largest of them
    /// when `den_best`, the smallest otherwise.
    Rows {
        /// Column compared.
        column: &'static str,
        /// Column telling numerator rows from denominator rows.
        by: &'static str,
        /// `by` text of the numerator row.
        num: &'static str,
        /// `by` texts of the denominator rows.
        den: &'static [&'static str],
        /// Divide by the best (largest) denominator row, not the worst.
        den_best: bool,
    },
    /// Column `num` over column `den` of the same row.
    Columns {
        /// Numerator column.
        num: &'static str,
        /// Denominator column.
        den: &'static str,
    },
}

/// One headline claim over a committed artifact: a ratio that must not
/// fall below `floor` in any comparison group. The table in
/// `crate::eval::CLAIMS` is the only place a threshold is written; the
/// `exp check` driver, the tier-1 golden test and
/// `docs/architecture.md` §7 all read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Artifact stem (`BENCH_<artifact>.json`).
    pub artifact: &'static str,
    /// What the ratio compares, in words.
    pub what: &'static str,
    /// Key columns: rows agreeing on all of them form one comparison
    /// group.
    pub keys: &'static [&'static str],
    /// Hold only the groups at the largest `clients` value to the floor
    /// (the saturated end of the sweep) instead of every group.
    pub at_peak: bool,
    /// The cells divided within each group.
    pub ratio: Ratio,
    /// The smallest acceptable ratio.
    pub floor: f64,
}

impl Claim {
    /// The claim's ratio on `table`, minimised over its comparison
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics if a group lacks a numerator or denominator row (a
    /// malformed sweep).
    pub fn measure(&self, table: &Table) -> f64 {
        let peak = self
            .at_peak
            .then(|| table.column("clients").into_iter().fold(0.0, f64::max));
        let keys: Vec<usize> = self.keys.iter().map(|c| table.col(c)).collect();
        let mut worst = f64::INFINITY;
        for group in table.distinct(&keys) {
            let rows: Vec<usize> = table
                .rows_matching(&keys, &group)
                .filter(|&r| peak.is_none_or(|p| table.num(r, "clients") == p))
                .collect();
            if rows.is_empty() {
                continue;
            }
            match self.ratio {
                Ratio::Columns { num, den } => {
                    for &r in &rows {
                        worst = worst.min(table.num(r, num) / table.num(r, den));
                    }
                }
                Ratio::Rows {
                    column,
                    by,
                    num,
                    den,
                    den_best,
                } => {
                    let by = table.col(by);
                    let pick = |wanted: &[&str]| -> Vec<f64> {
                        rows.iter()
                            .filter(|&&r| wanted.contains(&table.text(r, by).as_str()))
                            .map(|&r| table.num(r, column))
                            .collect()
                    };
                    let (n, d) = (pick(&[num]), pick(den));
                    assert!(
                        n.len() == 1 && d.len() == den.len(),
                        "{}: group {group:?} lacks rows for '{}'",
                        table.name,
                        self.what
                    );
                    let d = if den_best {
                        d.into_iter().fold(f64::MIN, f64::max)
                    } else {
                        d.into_iter().fold(f64::MAX, f64::min)
                    };
                    worst = worst.min(n[0] / d);
                }
            }
        }
        assert!(
            worst.is_finite(),
            "{}: no group for '{}'",
            table.name,
            self.what
        );
        worst
    }

    /// The claim as its row of the `docs/architecture.md` §7 table.
    pub fn doc_row(&self) -> String {
        format!(
            "| `BENCH_{}.json` | {} | ≥ {:.2}x |",
            self.artifact, self.what, self.floor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let columns = [("mode", 0), ("clients", 0), ("gbps", 2), ("ok", 0)];
        let grid = (&["mode"][..], "clients", &["gbps"][..]);
        let mut t = Table::new("sample", "sample".to_string(), &columns, grid);
        for (mode, clients, gbps) in [
            ("a", 10, 1.0),
            ("b", 10, 1.5),
            ("a", 20, 1.0),
            ("b", 20, 3.0),
        ] {
            t.push(vec![
                mode.into(),
                (clients as usize).into(),
                gbps.into(),
                true.into(),
            ]);
        }
        t
    }

    #[test]
    fn json_is_one_fixed_precision_object_per_line() {
        let json = sample().to_json();
        assert!(json.starts_with(
            "[\n  {\"mode\": \"a\", \"clients\": 10, \"gbps\": 1.00, \"ok\": true},\n"
        ));
        assert!(json.ends_with("\"gbps\": 3.00, \"ok\": true}\n]\n"));
    }

    #[test]
    fn claim_minimises_over_groups_or_reads_the_peak_only() {
        let mut claim = Claim {
            artifact: "sample",
            what: "b over a",
            keys: &["clients"],
            at_peak: false,
            ratio: Ratio::Rows {
                column: "gbps",
                by: "mode",
                num: "b",
                den: &["a"],
                den_best: true,
            },
            floor: 1.0,
        };
        assert_eq!(claim.measure(&sample()), 1.5);
        claim.at_peak = true;
        assert_eq!(claim.measure(&sample()), 3.0);
        assert_eq!(
            sample().get(&[("mode", "b"), ("clients", "20")], "gbps"),
            3.0
        );
    }
}
