//! Property tests: the PEL byte-code VM agrees with the reference AST
//! interpreter on randomly generated expressions, and ring-interval tests
//! agree with direct `Uint160` interval arithmetic.

use p2_pel::{BinOp, EvalContext, Expr, IntervalKind, Program, UnOp};
use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1.0e9..1.0e9f64).prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,8}".prop_map(Value::str),
        any::<u64>().prop_map(|v| Value::Id(Uint160::from_u64(v))),
        (0u64..1_000_000_000).prop_map(|us| Value::Time(SimTime::from_micros(us))),
        Just(Value::Null),
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

/// Expressions that avoid the stateful builtins (f_rand / f_coinFlip) so that
/// evaluating twice gives the same answer.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_value().prop_map(Expr::Const),
        (0usize..4).prop_map(Expr::Field),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (inner.clone()).prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            (inner.clone()).prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            (arb_interval_kind(), inner.clone(), inner.clone(), inner).prop_map(
                |(kind, v, lo, hi)| Expr::Interval {
                    kind,
                    value: Box::new(v),
                    low: Box::new(lo),
                    high: Box::new(hi),
                }
            ),
        ]
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 4).prop_map(|vs| Tuple::new("prop", vs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vm_agrees_with_ast_interpreter(expr in arb_expr(), tuple in arb_tuple()) {
        let mut ctx_a = EvalContext::new("n1", 9);
        ctx_a.set_now(SimTime::from_secs(123));
        let mut ctx_b = ctx_a.clone();
        let direct = expr.eval(&tuple, &mut ctx_a);
        let compiled = Program::compile(&expr).eval(&tuple, &mut ctx_b);
        prop_assert_eq!(direct, compiled);
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
