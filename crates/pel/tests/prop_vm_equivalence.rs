//! Property tests: the PEL evaluator — flat form and byte-code alike —
//! agrees with the reference AST interpreter on randomly generated
//! expressions and on Chord-shaped ring programs over full-width
//! identifiers, through every entry point, and ring-interval tests agree
//! with direct `Uint160` interval arithmetic.

use std::sync::Arc;

use p2_pel::{BinOp, Builtin, EvalContext, Expr, IntervalKind, Program, UnOp};
use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};
use proptest::prelude::*;

/// Fields in every generated tuple; expressions also load past them.
const FIELDS: usize = 4;

/// Full-width identifiers: SHA-1 hashes, the top of the ring, and values
/// at and one below a limb boundary (so subtraction borrows across limbs),
/// beside small ones.
fn arb_id() -> impl Strategy<Value = Uint160> {
    prop_oneof![
        any::<u64>().prop_map(|v| Uint160::hash_of(&v.to_be_bytes())),
        Just(Uint160::MAX),
        Just(Uint160::ZERO),
        Just(Uint160::from_limbs([u64::MAX, 0, 0])),
        Just(Uint160::from_limbs([0, 1, 0])),
        Just(Uint160::from_limbs([u64::MAX, u64::MAX, 0])),
        Just(Uint160::from_limbs([0, 0, 1])),
        any::<u64>().prop_map(Uint160::from_u64),
    ]
}

/// An address string: drawn values of the first arm are one shared `Arc`,
/// those of the second equal to it through an `Arc` of their own.
fn arb_addr() -> impl Strategy<Value = Value> {
    let shared = Value::Str(Arc::from("n1:10000"));
    prop_oneof![
        Just(shared),
        Just(()).prop_map(|_| Value::str("n1:10000")),
        Just(()).prop_map(|_| Value::str("n2:10000")),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        (-2i64..3).prop_map(Value::Int),
        (-1.0e9..1.0e9f64).prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,8}".prop_map(Value::str),
        arb_addr(),
        arb_id().prop_map(Value::Id),
        (0u64..1_000_000_000).prop_map(|us| Value::Time(SimTime::from_micros(us))),
        Just(Value::Null),
    ]
}

/// Fields of a ring program's tuple: mostly identifiers, beside small
/// integers (a shift amount of 159 too) and addresses.
fn arb_ring_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_id().prop_map(Value::Id),
        arb_id().prop_map(Value::Id),
        arb_id().prop_map(Value::Id),
        (-2i64..3).prop_map(Value::Int),
        Just(Value::Int(159)),
        arb_addr(),
    ]
}

/// Fields in every ring program's tuple.
const RING_FIELDS: usize = 6;

/// Chord-shaped programs: `F - F - c` and `F == F - F - c` (the lookup
/// and best-successor distances), a ring interval `&&` an address
/// equality, both together (L3's filter), `(1I << F) + F` (finger
/// targets) and `F == 159 || F == F`. One field index in seven is past
/// the tuple, so load errors meet the direct arms too.
fn arb_ring_expr() -> impl Strategy<Value = Expr> {
    let f = || (0..RING_FIELDS + 1).prop_map(Expr::Field);
    let c = || prop_oneof![Just(Expr::int(1)), arb_ring_value().prop_map(Expr::Const),];
    let sub = |a, b| Expr::bin(BinOp::Sub, a, b);
    let distance = (f(), f(), f(), c())
        .prop_map(move |(d, k, b, c)| Expr::bin(BinOp::Eq, d, sub(sub(k, b), c)))
        .boxed();
    let ring_test = ((arb_interval_kind(), f(), f(), f()), (f(), f()))
        .prop_map(|((kind, v, lo, hi), (x, y))| {
            Expr::bin(
                BinOp::And,
                interval(kind, v, lo, hi),
                Expr::bin(BinOp::Eq, x, y),
            )
        })
        .boxed();
    prop_oneof![
        (f(), f(), c()).prop_map(move |(k, b, c)| sub(sub(k, b), c)),
        distance.clone(),
        ring_test.clone(),
        (distance, ring_test).prop_map(|(d, r)| Expr::bin(BinOp::And, d, r)),
        (f(), f()).prop_map(|(i, n)| Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Shl, Expr::Const(Value::Id(Uint160::ONE)), i),
            n,
        )),
        (f(), f(), f()).prop_map(|(a, b, c)| Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Eq, a, Expr::int(159)),
            Expr::bin(BinOp::Eq, b, c),
        )),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn arb_interval_kind() -> impl Strategy<Value = IntervalKind> {
    prop_oneof![
        Just(IntervalKind::OpenOpen),
        Just(IntervalKind::OpenClosed),
        Just(IntervalKind::ClosedOpen),
        Just(IntervalKind::ClosedClosed),
    ]
}

fn arb_builtin() -> impl Strategy<Value = Builtin> {
    prop_oneof![
        Just(Builtin::Now),
        Just(Builtin::Rand),
        Just(Builtin::CoinFlip),
        Just(Builtin::Sha1),
        Just(Builtin::LocalAddr),
    ]
}

/// Constants, fields in and past the tuple, and calls of
/// the builtins that take no argument.
fn arb_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        arb_value().prop_map(Expr::Const),
        (0..FIELDS).prop_map(Expr::Field),
        (FIELDS..FIELDS + 3).prop_map(Expr::Field),
        prop_oneof![
            Just(Builtin::Now),
            Just(Builtin::Rand),
            Just(Builtin::LocalAddr)
        ]
        .prop_map(|b| Expr::Call(b, vec![])),
    ]
    .boxed()
}

fn interval(kind: IntervalKind, value: Expr, low: Expr, high: Expr) -> Expr {
    Expr::Interval {
        kind,
        value: Box::new(value),
        low: Box::new(low),
        high: Box::new(high),
    }
}

/// Half shapes that compile to the flat form when their leaves are
/// constants or fields (a leaf, one binary operator, one interval), half
/// nested expressions over operators, ring intervals and builtin calls,
/// the RNG-drawing ones included. A call usually gets its builtin's arity,
/// sometimes whatever number of arguments was drawn.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = arb_leaf();
    let flat = prop_oneof![
        leaf.clone(),
        (arb_binop(), leaf.clone(), leaf.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        (
            arb_interval_kind(),
            leaf.clone(),
            leaf.clone(),
            leaf.clone()
        )
            .prop_map(|(kind, v, lo, hi)| interval(kind, v, lo, hi)),
    ];
    let nested = leaf.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            inner.clone(),
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (inner.clone()).prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            (inner.clone()).prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            (
                arb_interval_kind(),
                inner.clone(),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(kind, v, lo, hi)| interval(kind, v, lo, hi)),
            (
                arb_builtin(),
                proptest::collection::vec(inner, 0..3),
                0u32..8
            )
                .prop_map(|(b, mut args, pick)| {
                    if pick != 0 {
                        args.truncate(b.arity());
                        while args.len() < b.arity() {
                            args.push(Expr::Field(0));
                        }
                    }
                    Expr::Call(b, args)
                }),
        ]
    });
    prop_oneof![flat, nested]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), FIELDS).prop_map(|vs| Tuple::new("prop", vs))
}

/// Splits `fields` at the sorted `cuts` into 1–4 segments, some of them
/// empty when cuts repeat or fall on an end.
fn split(fields: &[Value], mut cuts: Vec<usize>) -> Vec<&[Value]> {
    cuts.sort_unstable();
    let mut parts = Vec::new();
    let mut from = 0;
    for cut in cuts {
        parts.push(&fields[from..cut]);
        from = cut;
    }
    parts.push(&fields[from..]);
    parts
}

/// Exact agreement: same variant and bits (`Value`'s `==` equates `Int(1)`
/// with `Double(1.0)`), same error.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Checks that `expr` compiled evaluates exactly as the interpreter does
/// on `tuple`, through every entry point (`eval_concat` and
/// `eval_bool_concat` over `tuple` cut at `cuts`), and leaves the RNG
/// where the interpreter left it.
fn check_agreement(expr: &Expr, tuple: &Tuple, cuts: Vec<usize>) {
    let mut ctx = EvalContext::new("n1", 9);
    ctx.set_now(SimTime::from_secs(123));
    let program = Program::compile(expr);
    let parts = split(tuple.values(), cuts);

    // Each entry point runs on a clone of the same context; the draw
    // after it shows the RNG advanced exactly as the interpreter's did.
    let mut direct_ctx = ctx.clone();
    let direct = expr.eval(tuple, &mut direct_ctx);
    let next_draw = direct_ctx.next_u64();

    let mut vm_ctx = ctx.clone();
    let via_eval = program.eval(tuple, &mut vm_ctx);
    assert!(
        same(&via_eval, &direct),
        "eval {:?} != {:?}",
        via_eval,
        direct
    );
    assert_eq!(vm_ctx.next_u64(), next_draw);

    let mut concat_ctx = ctx.clone();
    let via_concat = program.eval_concat(&parts, &mut concat_ctx);
    assert!(
        same(&via_concat, &direct),
        "eval_concat {:?} != {:?}",
        via_concat,
        direct
    );
    assert_eq!(concat_ctx.next_u64(), next_draw);

    let mut bool_ctx = ctx.clone();
    let via_bool = program.eval_bool_concat(&parts, &mut bool_ctx);
    let expect = direct.as_ref().map(Value::truthy).map_err(Clone::clone);
    assert_eq!(via_bool, expect);
    assert_eq!(bool_ctx.next_u64(), next_draw);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vm_agrees_with_ast_interpreter(
        expr in arb_expr(),
        tuple in arb_tuple(),
        cuts in proptest::collection::vec(0..FIELDS + 1, 0..4),
    ) {
        check_agreement(&expr, &tuple, cuts);
    }

    #[test]
    fn ring_programs_agree_with_ast_interpreter(
        expr in arb_ring_expr(),
        values in proptest::collection::vec(arb_ring_value(), RING_FIELDS),
        cuts in proptest::collection::vec(0..RING_FIELDS + 1, 0..4),
    ) {
        check_agreement(&expr, &Tuple::new("ring", values), cuts);
    }

    #[test]
    fn interval_expr_agrees_with_uint160(
        kind in arb_interval_kind(),
        k in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let expr = Expr::Interval {
            kind,
            value: Box::new(Expr::Const(Value::Id(Uint160::from_u64(k)))),
            low: Box::new(Expr::Const(Value::Id(Uint160::from_u64(a)))),
            high: Box::new(Expr::Const(Value::Id(Uint160::from_u64(b)))),
        };
        let tuple = TupleBuilder::new("x").build();
        let mut ctx = EvalContext::new("n1", 1);
        let got = Program::compile(&expr).eval(&tuple, &mut ctx).unwrap();
        let (k, a, b) = (Uint160::from_u64(k), Uint160::from_u64(a), Uint160::from_u64(b));
        let expect = match kind {
            IntervalKind::OpenOpen => k.in_oo(a, b),
            IntervalKind::OpenClosed => k.in_oc(a, b),
            IntervalKind::ClosedOpen => k.in_co(a, b),
            IntervalKind::ClosedClosed => k.in_cc(a, b),
        };
        prop_assert_eq!(got, Value::Bool(expect));
    }

    #[test]
    fn uint160_add_sub_roundtrip(a in any::<[u64; 3]>(), b in any::<[u64; 3]>()) {
        let a = Uint160::from_limbs(a);
        let b = Uint160::from_limbs(b);
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
        prop_assert_eq!(a.wrapping_sub(b).wrapping_add(b), a);
        // Commutativity.
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn uint160_interval_partition(k in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        // For a != b, every point on the ring is in exactly one of (a,b] and (b,a].
        let (k, a, b) = (Uint160::hash_of(&k.to_be_bytes()),
                         Uint160::hash_of(&a.to_be_bytes()),
                         Uint160::hash_of(&b.to_be_bytes()));
        prop_assume!(a != b);
        prop_assert_eq!(k.in_oc(a, b), !k.in_oc(b, a));
    }

    #[test]
    fn marshal_roundtrip(values in proptest::collection::vec(arb_value(), 0..8), name in "[a-zA-Z][a-zA-Z0-9]{0,12}") {
        let t = Tuple::new(name.as_str(), values);
        let bytes = p2_value::wire::marshal(&t);
        prop_assert_eq!(bytes.len(), p2_value::wire::encoded_size(&t));
        let back = p2_value::wire::unmarshal(&bytes).unwrap();
        prop_assert_eq!(back.name(), t.name());
        prop_assert_eq!(back.values(), t.values());
    }
}
