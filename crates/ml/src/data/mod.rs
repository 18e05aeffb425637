//! Datasets, attributes, ARFF I/O, and the airlines generator.

pub mod airlines;
pub mod arff;
pub mod attribute;
pub mod dataset;

pub use attribute::{Attribute, AttributeKind};
pub use dataset::{Dataset, Schema};
