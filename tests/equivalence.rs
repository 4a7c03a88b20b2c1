//! The equivalence table itself (`tests/common/mod.rs`): every axis of the
//! contract has rows. Each group of rows runs from the suite of the
//! subsystem it exercises; the group no other suite owns runs here.

mod common;

use common::{check, table, Axis, Group};

#[test]
fn every_axis_has_a_row() {
    // `Axis::ALL` is declared with the enum, and `Row::covers` matches
    // every axis exhaustively against what a row runs: a new axis fails
    // here until the table has a row that varies it.
    let rows = table();
    for &axis in Axis::ALL {
        assert!(
            rows.iter().any(|row| row.covers(axis)),
            "{axis:?} has no row"
        );
    }
}

#[test]
fn edge_aggregators_reproduce_flat_aggregation() {
    check(Group::Tree);
}
