"""The benchmark's answer checks reject tampered answers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

One changed witness coefficient, one changed report byte or one changed
certificate field must turn an op into a failed op.
"""

import dataclasses
import json
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402


def bump_first_coeff(poly):
    """The same polynomial with its first coefficient increased by one."""
    terms = dict(poly.terms)
    exp = min(terms)
    terms[exp] += 1
    return type(poly)(poly.ring, terms)


class PaperSuiteChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.suite = workloads.PaperSuite(seed=7)
        cls.suite.setup()
        cls.ops = cls.suite.round(0)
        cls.answers = [cls.suite.run(cid) for cid in cls.ops]

    def test_untampered_pass_is_correct(self):
        self.assertEqual(self.suite.check_round(self.ops, self.answers), [True] * 12)

    def test_changed_record_fails_its_op(self):
        answers = list(self.answers)
        code, (rec,) = answers[0]
        bad = dataclasses.replace(rec, notes=rec.notes + ["x"])
        answers[0] = (code, [bad])
        flags = self.suite.check_round(self.ops, answers)
        self.assertFalse(flags[0])

    def test_changed_report_byte_fails_the_pass(self):
        suite = self.suite

        class Tampered(workloads.PaperSuite):
            def report_bytes(self, records, exit_code):
                rc, text = suite.report_bytes(records, exit_code)
                i = len(text) // 2
                return rc, text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]

        tampered = Tampered(seed=7)
        tampered.setup()
        self.assertEqual(tampered.check_round(self.ops, self.answers), [False] * 12)


class ExactSweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sweep = workloads.ExactSweep(seed=7)
        cls.sweep.setup()
        cech = cls.sweep.cech
        bundle = cls.sweep.cases[0].bundle  # O(-2) on Z_(-1)
        # z u is holomorphic on U, so a coboundary; z^-2 u is a basis class
        cls.trivial = cech.monomial_class(bundle, 1, (1, 1), Fraction(3))
        cls.nontrivial = cech.monomial_class(bundle, 1, (-2, 1))
        cls.ops = [
            ("is_coboundary", 0, cls.trivial),
            ("reduce", 0, cls.trivial),
            ("is_coboundary", 0, cls.nontrivial),
            ("reduce", 0, cls.nontrivial),
            ("h1", 0, None),
        ]
        cls.answers = [cls.sweep.run(op) for op in cls.ops]

    def test_untampered_answers_pass(self):
        self.assertEqual(self.sweep.check_round(self.ops, self.answers), [True] * 5)

    def test_changed_witness_coefficient_fails(self):
        answers = list(self.answers)
        ok, cert = answers[0]
        self.assertTrue(ok)
        alpha = (bump_first_coeff(cert.alpha[0]),) + cert.alpha[1:]
        answers[0] = (ok, dataclasses.replace(cert, alpha=alpha))
        self.assertFalse(self.sweep.check_round(self.ops, answers)[0])

    def test_changed_reduce_witness_fails(self):
        answers = list(self.answers)
        res = answers[1]
        alpha = (bump_first_coeff(res.witness.alpha[0]),) + res.witness.alpha[1:]
        witness = dataclasses.replace(res.witness, alpha=alpha)
        answers[1] = dataclasses.replace(res, witness=witness)
        self.assertFalse(self.sweep.check_round(self.ops, answers)[1])

    def test_verdicts_must_agree(self):
        answers = list(self.answers)
        answers[2] = (True, answers[0][1])  # claims the basis class is trivial
        flags = self.sweep.check_round(self.ops, answers)
        self.assertFalse(flags[2])
        self.assertFalse(flags[3])


class CliColdChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = workloads.CliCold(seed=7)
        cls.cli.setup()
        cls.witness_cmd = [
            "coboundary", "Z2@t1=1", "--bundle", "O(-2)", "--cocycle", "z^-1",
            "--l-lo", "-4", "--l-hi", "2", "--fiber-max", "3",
            "--stability-rounds", "2", "--format", "json",
        ]
        cls.stable_cmd = [
            "coboundary", "W2@t1=1", "--bundle", "O(-4)", "--cocycle", "z^-1",
            "--l-lo", "-2", "--l-hi", "1", "--fiber-max", "1",
            "--stability-rounds", "2", "--format", "json",
        ]
        cls.ops = [cls.witness_cmd, cls.stable_cmd]
        cls.answers = [cls.cli.run(op) for op in cls.ops]

    def test_untampered_answers_pass(self):
        self.assertEqual(self.cli.check_round(self.ops, self.answers), [True, True])

    def test_changed_witness_coefficient_fails(self):
        rc, text = self.answers[0]
        payload = json.loads(text)
        cert = payload["certification"]
        self.assertEqual(cert["kind"], "WitnessFound")
        side = "beta" if cert["beta"][0] != "0" else "alpha"
        cert[side][0] = f"2*({cert[side][0]})"
        bad = (rc, json.dumps(payload))
        self.assertEqual(self.cli.check_round(self.ops[:1], [bad]), [False])

    def test_stable_certificate_must_show_requested_rounds(self):
        rc, text = self.answers[1]
        payload = json.loads(text)
        self.assertEqual(payload["certification"]["kind"], "StableInBox")
        payload["certification"]["rounds"] = 1
        bad = (rc, json.dumps(payload))
        self.assertEqual(self.cli.check_round(self.ops[1:], [bad]), [False])

    def test_nonzero_exit_fails(self):
        self.assertEqual(self.cli.check_round(self.ops[:1], [(2, "")]), [False])


class CalibratedTiming(unittest.TestCase):
    def test_samples_cover_a_long_op_and_stay_out_of_its_time(self):
        class Sleep:
            def round(self, index):
                return [1.2]

            def run(self, op):
                time.sleep(op)

            def check_round(self, ops, answers):
                return [True] * len(ops)

        calibrator = worker.Calibrator()
        latencies, flags, rounds = worker.run_rounds(Sleep(), 1, 0, None, calibrator)
        self.assertGreaterEqual(len(calibrator.samples), 3)  # one at start, two in the op
        self.assertGreater(calibrator.spent, 0)
        self.assertAlmostEqual(latencies[0], 1.2, delta=0.05)
        self.assertEqual(rounds, [(1, latencies[0])])


if __name__ == "__main__":
    unittest.main()
