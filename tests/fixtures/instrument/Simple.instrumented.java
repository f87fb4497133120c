package com.fix;

public class Simple {
    private int state;

    public void guarded(int v) { exbtruntime.ExbtTraceLog.dump(); /* exbt:trace */
        if (v < 0) {
            throw new IllegalArgumentException("negative");
        }
        state = v;
    }

    public int read() {
        return state;
    }
}
