//! Thread handles are not a bounded resource: a long-lived instance serves
//! many more short-lived threads over its life than run at once.  Each
//! variant registers 300 handles one after another, each committing one full
//! transaction and dropped before the next registers.

use spectm::variants::{OrecFullG, TvarShortG, ValShort};
use spectm::{Stm, StmThread};

const HANDLES: u64 = 300;

fn sequential_registrations<S: Stm>() {
    let stm = S::new();
    let cell = stm.new_cell(0);
    for i in 1..=HANDLES {
        let mut t = stm.register();
        let old = t
            .atomic(|tx| {
                let old = tx.read(&cell)?;
                tx.write(&cell, old + 2)?;
                Ok(old)
            })
            .expect("never cancelled");
        assert_eq!(old, 2 * (i - 1) as usize, "handle {i}");
    }
    assert_eq!(S::peek(&cell), 2 * HANDLES as usize);
}

#[test]
fn three_hundred_sequential_handles_val_short() {
    sequential_registrations::<ValShort>();
}

#[test]
fn three_hundred_sequential_handles_tvar_short() {
    sequential_registrations::<TvarShortG>();
}

#[test]
fn three_hundred_sequential_handles_orec_full() {
    sequential_registrations::<OrecFullG>();
}
