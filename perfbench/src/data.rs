//! Workload inputs: TPC-H tables generated from the run's seed, encoded
//! once into columnar files, and staged into every fresh simulated cloud
//! a pass runs on. The generated columns stay in memory: they feed the
//! reference executor and the kernel replays.

use std::rc::Rc;
use std::sync::Arc;

use lambada_core::{TableFile, TableSpec};
use lambada_engine::{Catalog, Column, MemTable, RecordBatch, Schema};
use lambada_format::{chunk_rows, write_file, WriterOptions};
use lambada_sim::services::object_store::Body;
use lambada_sim::{Cloud, CloudConfig, Simulation};
use lambada_workloads::loader::{
    generate_customer_file_columns, generate_file_columns, generate_orders_file_columns,
};
use lambada_workloads::{customer, orders, CustomerStageOptions, OrdersStageOptions, StageOptions};

/// Bucket every table of a workload is staged into.
pub const BUCKET: &str = "tpch";

/// One generated table: its columns per file and the encoded files.
pub struct Table {
    pub name: &'static str,
    pub schema: Schema,
    /// `columns[f]` holds file `f`'s columns, in schema order.
    pub columns: Vec<Vec<Column>>,
    /// `(key, encoded body)` per file.
    pub files: Vec<(String, Body)>,
    pub total_rows: u64,
}

impl Table {
    /// Encode per-file column sets the way the repository's staging
    /// helpers lay tables out: `row_groups_per_file` row groups per file,
    /// default writer options.
    pub fn encode(
        name: &'static str,
        schema: Schema,
        columns: Vec<Vec<Column>>,
        total_rows: u64,
        row_groups_per_file: usize,
    ) -> Table {
        let file_schema = schema.to_file_schema().expect("numeric schema");
        let files = columns
            .iter()
            .enumerate()
            .map(|(idx, cols)| {
                let rows = cols.first().map_or(0, Column::len);
                let data: Vec<_> =
                    cols.iter().map(|c| c.clone().into_data().expect("numeric column")).collect();
                let groups = chunk_rows(&data, rows.div_ceil(row_groups_per_file.max(1)).max(1));
                let bytes = write_file(file_schema.clone(), &groups, WriterOptions::default())
                    .expect("encode table file");
                (format!("{name}/p{idx:05}/part.lpq"), Body::from_vec(bytes))
            })
            .collect();
        Table { name, schema, columns, files, total_rows }
    }

    /// Stage the encoded files into `cloud` (sharing the bytes) and
    /// return the spec to register.
    pub fn stage(&self, cloud: &Cloud) -> TableSpec {
        let files = self
            .files
            .iter()
            .map(|(key, body)| {
                cloud.s3.stage(BUCKET, key, body.clone());
                TableFile::real(BUCKET, key.clone(), body.len())
            })
            .collect();
        TableSpec::new(self.name, self.schema.clone(), files, self.total_rows)
    }

    pub fn batches(&self) -> Vec<RecordBatch> {
        let schema = Arc::new(self.schema.clone());
        self.columns
            .iter()
            .map(|cols| RecordBatch::new(Arc::clone(&schema), cols.clone()).expect("schema fits"))
            .collect()
    }
}

/// LINEITEM, ORDERS and (optionally) CUSTOMER at one scale factor, all
/// drawn from one seed.
pub struct Tpch {
    pub tables: Vec<Table>,
}

impl Tpch {
    pub fn generate(scale: f64, seed: u64, lineitem_files: usize, with_customer: bool) -> Tpch {
        let li_opts =
            StageOptions { scale, num_files: lineitem_files, row_groups_per_file: 4, seed };
        let li_rows = lambada_workloads::rows_for_scale(scale);
        let mut tables = vec![Table::encode(
            "lineitem",
            lambada_workloads::lineitem_schema(),
            generate_file_columns(li_opts),
            li_rows,
            li_opts.row_groups_per_file,
        )];
        let ord_opts = OrdersStageOptions {
            rows: orders::rows_matching_lineitem(li_rows),
            num_files: (lineitem_files / 2).max(1),
            row_groups_per_file: 3,
            seed,
        };
        tables.push(Table::encode(
            "orders",
            lambada_workloads::orders_schema(),
            generate_orders_file_columns(ord_opts),
            ord_opts.rows,
            ord_opts.row_groups_per_file,
        ));
        if with_customer {
            let cust_opts = CustomerStageOptions {
                rows: customer::rows_matching_orders(),
                num_files: 2,
                row_groups_per_file: 3,
                seed,
            };
            tables.push(Table::encode(
                "customer",
                lambada_workloads::customer_schema(),
                generate_customer_file_columns(cust_opts),
                cust_opts.rows,
                cust_opts.row_groups_per_file,
            ));
        }
        Tpch { tables }
    }

    pub fn table(&self, name: &str) -> &Table {
        self.tables.iter().find(|t| t.name == name).expect("table generated")
    }

    /// In-memory catalog over the same generated columns, for the
    /// reference executor.
    pub fn catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for t in &self.tables {
            let table =
                MemTable::new(Arc::new(t.schema.clone()), t.batches()).expect("schema fits");
            cat.register(t.name, Rc::new(table));
        }
        cat
    }

    pub fn stage(&self, cloud: &Cloud) -> Vec<TableSpec> {
        self.tables.iter().map(|t| t.stage(cloud)).collect()
    }
}

/// A fresh simulation and cloud whose randomness comes from `seed`.
pub fn fresh_cloud(seed: u64, min_concurrency: usize) -> (Simulation, Cloud) {
    let sim = Simulation::new();
    let mut config = CloudConfig { seed, ..CloudConfig::default() };
    config.faas.account_concurrency = config.faas.account_concurrency.max(min_concurrency);
    let cloud = Cloud::new(&sim, config);
    (sim, cloud)
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
