#!/bin/sh
# A quick tour of the twoloc command line. Run from anywhere after
#   pip install -e .
# Every command prints a JSON report; exit status is 0 (all verdicts hold),
# 1 (some verdict failed) or 2 (unreadable or unlawful input).
set -e
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== emit the bundled fixtures =="
twoloc fixtures F3 "$work/F3.json"
twoloc fixtures F4 "$work/F4.json"
twoloc fixtures pair2 "$work/pair2.json"
twoloc fixtures unit "$work/unit.json"
twoloc fixtures disc2 "$work/disc2.json"

echo "== F3 is a lawful 2-category and its class passes the fraction axioms =="
twoloc validate "$work/F3.json"
twoloc check-bf "$work/F3.json"

echo "== F4 is lawful but designed to fail one fraction axiom (exit 1) =="
twoloc check-bf "$work/F4.json" || echo "(exit $? as expected)"

echo "== saturate, localize, and decide an equivalence =="
twoloc saturate "$work/F3.json"
twoloc localize "$work/F3.json"
twoloc equiv "$work/F3.json" "(0,id0,w)"

echo "== compare two presentations of localized 2-cells =="
twoloc fixtures F7 "$work/F7.json"
twoloc cell-eq "$work/F7.json" --src "(A,idA,f)" --dst "(A,idA,f)" \
    "(A,idA,idA,i_idA,i_f)" "(A,idA,idA,i_idA,tau_f)"

echo "== groupoid checks =="
twoloc groupoid --check=saturated "$work/unit.json" "$work/pair2.json"
twoloc groupoid --check=two-out-of-six "$work/unit.json" "$work/pair2.json" "$work/disc2.json"

echo "== induce the identity of F6 on its localization, with the X-conditions =="
twoloc fixtures F6 "$work/F6.json"
cat > "$work/id.json" <<'JSON'
{"f0": {"X": "X", "Y": "Y"},
 "f1": {"f": "f", "g": "g", "idX": "idX", "idY": "idY"},
 "f2": {"i_f": "i_f", "i_g": "i_g", "i_idX": "i_idX", "i_idY": "i_idY",
        "s_f": "s_f", "s_g": "s_g", "s_idX": "s_idX", "s_idY": "s_idY"}}
JSON
twoloc induce "$work/F6.json" "$work/F6.json" "$work/id.json" --xchecks

echo "== sending s_f to i_f breaks hcomp, so it is not a functor (exit 2) =="
sed 's/"s_f": "s_f"/"s_f": "i_f"/' "$work/id.json" > "$work/bad.json"
status=0
twoloc induce "$work/F6.json" "$work/F6.json" "$work/bad.json" \
    > "$work/bad.out" || status=$?
cat "$work/bad.out"
test "$status" -eq 2
grep -q functor_validation "$work/bad.out"
echo "(exit $status as expected)"
