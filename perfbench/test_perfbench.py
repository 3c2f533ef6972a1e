"""Self-tests of the benchmark itself (not of classinv).

    python3 -m unittest discover -s perfbench
"""

import dataclasses
import sys
import unittest

import run

run.import_classinv()

import classinv  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
from classinv import action, certify, cli, exact  # noqa: E402


def _small_fft_jobs():
    """Cheap certification jobs: o(2) on two vectors, degrees 2 and 4."""
    spec, sig = classinv.orthogonal(2), classinv.SpaceSignature(2, 0, 2)
    return [
        jobs.Job(f"fft/o2-d{d}", "fft", lambda d=d: certify.fft_verify(spec, sig, d, 0),
                 {"dim_span": dim, "dim_kernel": dim})
        for d, dim in ((2, 3), (4, 6))
    ]


class SelfTimeTest(unittest.TestCase):
    def test_self_times_sum_to_root(self):
        # root 0..10 with children 1..4 and 5..9; the second has a child 6..8
        spans = [
            ["bench", "job", 0.0, 10.0, -1, "j", None],
            ["certify", "a", 1.0, 4.0, 0, "j", None],
            ["certify", "b", 5.0, 9.0, 0, "j", None],
            ["exact", "rref", 6.0, 8.0, 2, "j", None],
        ]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, [3.0, 3.0, 2.0, 2.0])
        self.assertAlmostEqual(sum(selfs), spans[0][tracing.END] - spans[0][tracing.START])

    def test_recorded_self_times_sum_to_job_spans(self):
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            for job in _small_fft_jobs():
                with tracer.job_span(job.id):
                    job.call()
        spans = tracer.take()
        roots = [s for s in spans if s[tracing.PARENT] == -1]
        self.assertEqual(len(roots), 2)
        total = sum(s[tracing.END] - s[tracing.START] for s in roots)
        self.assertAlmostEqual(sum(tracing.self_times(spans)), total, places=9)


class PatchTest(unittest.TestCase):
    def _bindings(self):
        names = {attr for _, _, attr, _ in tracing.TARGETS}
        out = {}
        for name, mod in list(sys.modules.items()):
            if name == "classinv" or name.startswith("classinv."):
                for attr in names & set(vars(mod)):
                    out[(name, attr)] = vars(mod)[attr]
        for attr in ("__mul__", "__rmul__"):
            out[("Polynomial", attr)] = vars(classinv.Polynomial)[attr]
        return out

    def test_every_namespace_is_patched_and_restored(self):
        before = self._bindings()
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            # names imported into other modules are wrapped too
            self.assertIsNot(certify.act, action.act.__wrapped__)
            self.assertIs(certify.act.__wrapped__, before[("classinv.action", "act")])
            self.assertIs(certify.rref, exact.rref)
            self.assertIs(cli.fft_verify, certify.fft_verify)
            self.assertIs(classinv.act, action.act)
            job = _small_fft_jobs()[1]
            with tracer.job_span(job.id):
                job.call()
        after = self._bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        # the kernel's own cuts reach act and rref through certify's names
        spans = tracer.take()
        names = [s[tracing.NAME] for s in spans]
        self.assertIn("act", names)
        self.assertIn("rref", names)
        kernel = names.index("invariant_subspace_basis")
        act = spans[names.index("act")]
        while act[tracing.PARENT] not in (-1, kernel):
            act = spans[act[tracing.PARENT]]
        self.assertEqual(act[tracing.PARENT], kernel)

    def test_restored_after_an_exception(self):
        before = self._bindings()
        with self.assertRaises(RuntimeError):
            with tracing.patched(tracing.Tracer()):
                raise RuntimeError("boom")
        self.assertEqual(self._bindings(), before)


class GateTest(unittest.TestCase):
    def _tally(self, job_list):
        runner = run.Runner(lambda pass_index: job_list)
        runner.one_pass()
        attempted, failed, wrong, gate = run.tally([runner])
        return failed / attempted, wrong, gate

    def test_correct_answers_pass(self):
        job_list = _small_fft_jobs()
        frac, wrong, gate = self._tally(job_list)
        self.assertEqual((frac, wrong), (0.0, 0), gate.failures)

    def test_corrupted_expected_value_fails(self):
        good, bad = _small_fft_jobs()
        wrong = dict(bad.expect, dim_span=bad.expect["dim_span"] + 1)
        frac, wrong_count, gate = self._tally([good, dataclasses.replace(bad, expect=wrong)])
        self.assertGreater(frac, 0.0)
        self.assertEqual(wrong_count, 1)
        self.assertEqual(len(gate.failures), 1)

    def test_wrong_exit_code_fails(self):
        check = [j for j in jobs.build("expr-cli", 0) if "/check-perturbed/" in j.id][0]
        wrong = dataclasses.replace(check, expect=dict(check.expect, exit=0))
        frac, wrong_count, _ = self._tally([wrong])
        self.assertGreater(frac, 0.0)
        self.assertEqual(wrong_count, 1)

    def test_raising_job_fails(self):
        def boom():
            raise ValueError("boom")

        job = dataclasses.replace(_small_fft_jobs()[0], call=boom)
        frac, wrong, gate = self._tally([job])
        self.assertEqual((frac, wrong), (1.0, 0))
        self.assertIn("raised ValueError", gate.failures[0])


if __name__ == "__main__":
    unittest.main()
