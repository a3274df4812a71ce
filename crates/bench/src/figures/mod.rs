//! One module per reproduced figure. Each exposes `run(&RunOpts)` printing
//! the same series the paper plots (and optionally CSV).

pub mod access_paths;
pub mod compress;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig9;
pub mod kernel_sweep;
pub mod par_scaling;
pub mod query_pipeline;
pub mod select_paths;
pub mod service;
pub mod shard;
pub mod shared;
pub mod skew;
pub mod trace;
pub mod validate;
pub mod vm;

use crate::report::TextTable;
use crate::runner::RunOpts;

/// Print (and optionally CSV-dump) a finished table.
pub(crate) fn emit(opts: &RunOpts, table: &TextTable) {
    table.print();
    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = table.write_csv(dir) {
            eprintln!("warning: could not write CSV: {e}");
        }
    }
}
