//! The hostile-bytes toolkit shared by the decoder batteries
//! (`checkpoint_mutations.rs`, `merge_input_mutations.rs`): a per-thread
//! counting allocator, and structure-aware mutations of a JSON value tree
//! that drop, duplicate and retype fields and array elements anywhere in
//! it.

#![allow(dead_code)] // each test target compiles its own copy

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread what is requested of it (the
/// test harness runs tests on parallel threads).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with
// no destructor and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result with the bytes this thread requested of
/// the allocator meanwhile and the wall time it took.
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, usize, Duration) {
    let (before, started) = (REQUESTED.with(Cell::get), Instant::now());
    let out = f();
    (out, REQUESTED.with(Cell::get) - before, started.elapsed())
}

/// The allocation a decoder may make on `input_len` bytes: a value tree
/// costs tens of bytes per input byte at worst (`[0,0,…`); what must not
/// happen is a size taken from the input on trust.
pub fn allocation_bound(input_len: usize) -> usize {
    256 * input_len + (64 << 10)
}

pub fn count_objects(v: &Value) -> usize {
    match v {
        Value::Object(fields) => 1 + fields.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Value::Array(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

fn count_arrays(v: &Value) -> usize {
    match v {
        Value::Object(fields) => fields.iter().map(|(_, v)| count_arrays(v)).sum(),
        Value::Array(items) => 1 + items.iter().map(count_arrays).sum::<usize>(),
        _ => 0,
    }
}

/// The fields of the `n`-th object in depth-first order.
fn nth_object<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Vec<(String, Value)>> {
    match v {
        Value::Object(fields) => {
            if *n == 0 {
                return Some(fields);
            }
            *n -= 1;
            fields.iter_mut().find_map(|(_, v)| nth_object(v, n))
        }
        Value::Array(items) => items.iter_mut().find_map(|v| nth_object(v, n)),
        _ => None,
    }
}

/// The items of the `n`-th array in depth-first order.
fn nth_array<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Vec<Value>> {
    match v {
        Value::Object(fields) => fields.iter_mut().find_map(|(_, v)| nth_array(v, n)),
        Value::Array(items) => {
            if *n == 0 {
                return Some(items);
            }
            *n -= 1;
            items.iter_mut().find_map(|v| nth_array(v, n))
        }
        _ => None,
    }
}

pub fn field_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A value of some other type, or at an edge of its own.
fn replacement(pick: u64) -> Value {
    match pick % 12 {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::U64(0),
        3 => Value::I64(-1),
        4 => Value::U64(u64::MAX),
        5 => Value::F64(1e308),
        6 => Value::F64(-0.0),
        7 => Value::Str(String::new()),
        8 => Value::Str("Sketch".to_owned()),
        9 => Value::Array(vec![]),
        10 => Value::Array(vec![Value::Array(vec![Value::Null]), Value::U64(7)]),
        _ => Value::Object(vec![("k".to_owned(), Value::U64(1))]),
    }
}

/// Drop (`kind` 0), duplicate (1) or retype (2) one field of one object
/// of `payload`; `a` picks the object, `b` the field and what it becomes.
pub fn mutate_field(payload: &mut Value, kind: u8, a: u64, b: u64) {
    let objects = count_objects(payload);
    if objects == 0 {
        return;
    }
    let mut nth = (a % objects as u64) as usize;
    let fields = nth_object(payload, &mut nth).expect("counted");
    if fields.is_empty() {
        return;
    }
    let at = (b % fields.len() as u64) as usize;
    match kind {
        0 => {
            fields.remove(at);
        }
        1 => {
            let mut copy = fields[at].clone();
            if b & (1 << 40) != 0 {
                copy.1 = replacement(b >> 41);
            }
            // Before or after the original: `serde::field` takes the
            // first match.
            let to = if b & (1 << 39) != 0 { 0 } else { fields.len() };
            fields.insert(to, copy);
        }
        _ => fields[at].1 = replacement(b >> 32),
    }
}

fn count_numbers(v: &Value) -> usize {
    match v {
        Value::Object(fields) => fields.iter().map(|(_, v)| count_numbers(v)).sum(),
        Value::Array(items) => items.iter().map(count_numbers).sum(),
        Value::U64(_) | Value::I64(_) | Value::F64(_) => 1,
        _ => 0,
    }
}

/// The `n`-th number in depth-first order.
fn nth_number<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
    match v {
        Value::Object(fields) => fields.iter_mut().find_map(|(_, v)| nth_number(v, n)),
        Value::Array(items) => items.iter_mut().find_map(|v| nth_number(v, n)),
        Value::U64(_) | Value::I64(_) | Value::F64(_) => {
            if *n == 0 {
                return Some(v);
            }
            *n -= 1;
            None
        }
        _ => None,
    }
}

/// Push one number of `payload` to an edge of its range — a count, id or
/// bound taken at face value is where arithmetic overflows; `a` picks
/// the number, `b` what it becomes.
pub fn mutate_number(payload: &mut Value, a: u64, b: u64) {
    let numbers = count_numbers(payload);
    if numbers == 0 {
        return;
    }
    let mut nth = (a % numbers as u64) as usize;
    let n = nth_number(payload, &mut nth).expect("counted");
    *n = match b % 6 {
        0 => Value::U64(0),
        1 => Value::U64(1),
        2 => Value::U64(u64::MAX),
        3 => Value::U64(1 << 63),
        4 => Value::I64(-1),
        _ => Value::F64(0.5),
    };
}

/// Drop (`kind` 0), duplicate (1) or retype (2) one item of one array of
/// `payload`; `a` picks the array, `b` the item and what it becomes.
pub fn mutate_item(payload: &mut Value, kind: u8, a: u64, b: u64) {
    let arrays = count_arrays(payload);
    if arrays == 0 {
        return;
    }
    let mut nth = (a % arrays as u64) as usize;
    let items = nth_array(payload, &mut nth).expect("counted");
    if items.is_empty() {
        return;
    }
    let at = (b % items.len() as u64) as usize;
    match kind {
        0 => {
            items.remove(at);
        }
        1 => {
            let copy = items[at].clone();
            items.insert(at, copy);
        }
        _ => items[at] = replacement(b >> 32),
    }
}
