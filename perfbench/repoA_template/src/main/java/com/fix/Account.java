package com.fix;

/** Small account with guarded operations. */
public class Account {
    private int balance;
    private final int limit;

    public Account(int limit) {
        this.limit = limit;
    }

    public void withdraw(int amount) {
        if (amount < 0) {
            throw new IllegalArgumentException("negative amount");
        }
        balance -= amount;
    }

    public void deposit(int amount) {
        int next = balance + amount;
        if (next > limit) {
            throw new IllegalStateException("over limit");
        }
        balance = next;
    }

    public void close() {
        if (balance != 0) {
            throw new IllegalStateException("balance not settled");
        }
    }

    public int balance() {
        return balance;
    }
}
