"""The repository benchmark: service load ladder, saturated service, vector sweep.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/NOTES.md`` for what each
workload and metric means.
"""
